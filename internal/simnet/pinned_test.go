package simnet

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"
)

func logDigest(log []string) string {
	sum := sha256.Sum256([]byte(strings.Join(log, "\n")))
	return hex.EncodeToString(sum[:])
}

// TestDriverStreamsPinned pins the seeded streams of the three deterministic
// drivers to the values they produced before the round loop moved into
// rps.Network and the search loop into the shared harness (captured at
// commit 5d3e3f2). The determinism tests prove a run equals its replay; this
// one proves a refactor of the drivers left every draw where it was.
func TestDriverStreamsPinned(t *testing.T) {
	t.Run("membership", func(t *testing.T) {
		rep, err := MembershipChurn(MembershipOptions{
			Seed: 99, Nodes: 48, Seeds: 2, Rounds: 40, DropRate: 0.1,
			Joins: 4, Leaves: 4, PartitionAt: 12, HealAt: 18, BlacklistAt: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := *rep
		got.Log = nil
		want := MembershipReport{
			Rounds: 40, ConvergedAt: 2, ReconvergedAt: 26, LastDisturbance: 26,
			FinalAlive: 47, FinalReachable: 47, Joins: 4, Leaves: 4,
			Victim: "node0004", MinInDegree: 8, MaxInDegree: 27,
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("report moved:\n got %+v\nwant %+v", got, want)
		}
		if len(rep.Log) != 13 {
			t.Errorf("log has %d lines, want 13:\n%s", len(rep.Log), strings.Join(rep.Log, "\n"))
		}
		if d := logDigest(rep.Log); d != "44b16140045baf3496f1cf69980e1b31f53e954cfbd36e7691118157c5c56ac0" {
			t.Errorf("log digest %s moved:\n%s", d, strings.Join(rep.Log, "\n"))
		}
	})

	t.Run("wan", func(t *testing.T) {
		rep, err := WANChurn(WANChurnOptions{
			Seed: 7, Nodes: 1500, Rounds: 12, PartitionAt: 5, HealAt: 7, ConvergeFrac: 0.995,
			Churn: WANChurnConfig{ChurnPerRound: 0.01, FlashCrowds: []FlashCrowd{{Round: 3, Size: 60}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ints := []struct {
			name      string
			got, want int
		}{
			{"ConvergedAt", rep.ConvergedAt, 3},
			{"ReconvergedAt", rep.ReconvergedAt, 12},
			{"LastDisturbance", rep.LastDisturbance, 12},
			{"HealRounds", rep.HealRounds, 0},
			{"FinalAlive", rep.FinalAlive, 1577},
			{"FinalReachable", rep.FinalReachable, 1575},
			{"Joins", rep.Joins, 240},
			{"Leaves", rep.Leaves, 163},
			{"Rebootstraps", rep.Rebootstraps, 0},
			{"Exchanges", rep.Exchanges, 18942},
			{"Losses", rep.Losses, 121},
			{"Timeouts", rep.Timeouts, 3},
			{"MinInDegree", rep.MinInDegree, 0},
			{"MaxInDegree", rep.MaxInDegree, 47},
			{"SeedMaxInDegree", rep.SeedMaxInDegree, 388},
			{"len(Log)", len(rep.Log), 14},
		}
		for _, c := range ints {
			if c.got != c.want {
				t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
			}
		}
		if rep.RTTp50 != 133441771*time.Nanosecond || rep.RTTp95 != 268877305*time.Nanosecond {
			t.Errorf("RTT p50 %v p95 %v, want 133.441771ms 268.877305ms", rep.RTTp50, rep.RTTp95)
		}
		if m := rep.MeanInDegree; m < 12.90925 || m > 12.90935 {
			t.Errorf("MeanInDegree = %v, want 12.9093", m)
		}
		if d := logDigest(rep.Log); d != "ae81452ba2d677c12e8dd4f8693f82b7af1f728c5bc5f4e20f6c1abcb584e757" {
			t.Errorf("log digest %s moved:\n%s", d, strings.Join(rep.Log, "\n"))
		}
	})

	t.Run("chaos", func(t *testing.T) {
		rep, err := Chaos(ChaosOptions{Seed: 11, Nodes: 12, K: 0, Clients: 1, Rounds: 4, OpsPerRound: 24})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Ops != 72 || rep.Errors != 0 || rep.CrashedClientOps != 24 {
			t.Errorf("ops %d errors %d crashed-client ops %d, want 72 0 24", rep.Ops, rep.Errors, rep.CrashedClientOps)
		}
		want := Stats{
			Attempts: 79, Delivered: 75, Dropped: 2, Truncated: 2, Oversized: 1,
			CrashBlocked: 1, PartitionBlocked: 1,
		}
		if rep.Sim != want {
			t.Errorf("fault stats moved:\n got %+v\nwant %+v", rep.Sim, want)
		}
		if len(rep.Events) != 7 {
			t.Errorf("%d fault events, want 7: %v", len(rep.Events), rep.Events)
		}
	})
}

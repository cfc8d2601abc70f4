package simnet

import (
	"reflect"
	"testing"
)

// TestAccountingChaosConverges is the partition-heal acceptance run: across
// several seeds, evidence recorded on either side of the partition must
// survive to every replica exactly — no count lost, none double-applied.
func TestAccountingChaosConverges(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		report, err := AccountingChaos(AccountingChaosOptions{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if bad := report.Check(); len(bad) > 0 {
			t.Errorf("seed %d violated invariants:\n%s\n%s", seed, report, bad)
		}
	}
}

// TestAccountingChaosDeterministicPerSeed: the whole run is a pure function
// of the seed — two runs must produce identical reports.
func TestAccountingChaosDeterministicPerSeed(t *testing.T) {
	opts := AccountingChaosOptions{Seed: 99, Replicas: 10, Subjects: 7, Rounds: 16}
	a, err := AccountingChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AccountingChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n%s\nvs\n%s", a, b)
	}
}

// TestAccountingChaosExercisesBothSides: the default pardon rate must put
// both P and N entries on the wire, and the partition window must actually
// confine merges.
func TestAccountingChaosExercisesBothSides(t *testing.T) {
	report, err := AccountingChaos(AccountingChaosOptions{Seed: 3, Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if report.Pardons == 0 {
		t.Error("no pardons fired; N side untested")
	}
	if report.Events == 0 {
		t.Error("no charges fired")
	}
	if report.PartitionedMerges == 0 || report.DuplicateMerges == 0 {
		t.Errorf("schedule gaps: %d partitioned merges, %d duplicates",
			report.PartitionedMerges, report.DuplicateMerges)
	}
	if bad := report.Check(); len(bad) > 0 {
		t.Fatalf("run failed: %v\n%s", bad, report)
	}
}

// TestAccountingChaosRejectsBadOptions covers the option validation paths.
func TestAccountingChaosRejectsBadOptions(t *testing.T) {
	if _, err := AccountingChaos(AccountingChaosOptions{Seed: 1, Replicas: 2}); err == nil {
		t.Error("accepted 2 replicas")
	}
	if _, err := AccountingChaos(AccountingChaosOptions{Seed: 1, Rounds: 4, PartitionStart: 3, PartitionEnd: 2}); err == nil {
		t.Error("accepted inverted partition window")
	}
	if _, err := AccountingChaos(AccountingChaosOptions{Seed: 1, Rounds: 4, PartitionStart: 1, PartitionEnd: 9}); err == nil {
		t.Error("accepted window past the run")
	}
}

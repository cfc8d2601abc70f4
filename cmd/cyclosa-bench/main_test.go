package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestRunTable1(t *testing.T) {
	if err := run([]string{"-exp", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCrowdSmallWorld(t *testing.T) {
	if err := run([]string{"-exp", "crowd", "-users", "20", "-mean-queries", "30"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFastExperimentsSmallWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("several experiment drivers")
	}
	args := []string{"-users", "20", "-mean-queries", "30", "-queries", "60"}
	for _, exp := range []string{"table2", "fig7", "fig6", "ablation"} {
		if err := run(append([]string{"-exp", exp}, args...)); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunChaos(t *testing.T) {
	args := []string{"-exp", "chaos", "-seed", "3", "-chaos-rounds", "3", "-concurrency", "4"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-workload", "trace")); err != nil {
		t.Fatal(err)
	}
}

// captureStderr returns what f wrote to os.Stderr.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // a short read only shortens the failure message
		done <- string(b)
	}()
	f()
	os.Stderr = saved
	w.Close()
	return <-done
}

// TestRunUnknownExperiment: the name is resolved against the table before
// any work — no world is built for a typo (default -users 198 here, which
// would take seconds) — and the error lists the names that would have worked.
func TestRunUnknownExperiment(t *testing.T) {
	var err error
	stderr := captureStderr(t, func() { err = run([]string{"-exp", "nope"}) })
	if err == nil {
		t.Fatal("unknown experiment should fail")
	}
	if strings.Contains(stderr, "building world") {
		t.Fatalf("a world was built for an unknown experiment:\n%s", stderr)
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not list %s", err, e.name)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag should fail")
	}
}

// TestExperimentTable pins what is derived from the table: names are
// unique, and the -exp and -json help name exactly the rows they apply to.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] || e.name == "all" {
			t.Errorf("experiment name %q is taken", e.name)
		}
		seen[e.name] = true
	}

	usage := captureStderr(t, func() {
		if err := run([]string{"-h"}); err != flag.ErrHelp {
			t.Errorf("-h returned %v, want flag.ErrHelp", err)
		}
	})
	help := map[string]string{}
	for _, block := range strings.Split(usage, "\n  -")[1:] {
		name, _, _ := strings.Cut(block, " ")
		help[strings.TrimSpace(name)] = block
	}
	for _, e := range experiments {
		if !strings.Contains(help["exp"], e.name+"|") {
			t.Errorf("-exp help does not name %s:\n%s", e.name, help["exp"])
		}
		if got := strings.Contains(help["json"], e.name); got != e.recorded {
			t.Errorf("-json help names %s = %v, recorded = %v:\n%s", e.name, got, e.recorded, help["json"])
		}
	}
}

// stubResult is a result with violations.
type stubResult []string

func (s stubResult) String() string       { return "stub result" }
func (s stubResult) Violations() []string { return s }

// TestRunAllRunsTheInAllRows: -exp all runs exactly the rows marked inAll,
// each once, for real on a tiny world.
func TestRunAllRunsTheInAllRows(t *testing.T) {
	saved := append([]experiment(nil), experiments...)
	defer func() { copy(experiments, saved) }()
	var want, ran []string
	for i := range experiments {
		e := saved[i]
		if e.inAll {
			want = append(want, e.name)
		}
		experiments[i].run = func(c *config) (fmt.Stringer, error) {
			ran = append(ran, e.name)
			return e.run(c)
		}
	}
	args := []string{"-exp", "all", "-users", "12", "-mean-queries", "12", "-queries", "20", "-chaos-rounds", "2", "-concurrency", "2"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, want) {
		t.Fatalf("-exp all ran %v, want the inAll rows %v", ran, want)
	}
}

// TestRunViolationsFailNamingTheSeed: every exit-code gate (chaos, backend,
// accounting, privacy) is the same few lines of emit — a result with
// violations makes run fail, and the message names the experiment, the seed
// that replays the run and what was violated.
func TestRunViolationsFailNamingTheSeed(t *testing.T) {
	saved := experiments
	defer func() { experiments = saved }()
	experiments = append(append([]experiment(nil), saved...), experiment{
		name: "violating",
		run: func(*config) (fmt.Stringer, error) {
			return stubResult{"bound exceeded", "nothing shed"}, nil
		},
	})
	err := run([]string{"-exp", "violating", "-seed", "42"})
	if err == nil {
		t.Fatal("a result with violations did not fail the run")
	}
	for _, part := range []string{"violating", "seed 42", "bound exceeded", "nothing shed"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	experiments[len(experiments)-1].run = func(*config) (fmt.Stringer, error) { return stubResult{}, nil }
	if err := run([]string{"-exp", "violating"}); err != nil {
		t.Fatalf("a result with no violations failed the run: %v", err)
	}
}

// TestRunRecordedExperimentWritesJSON: -json goes through the one writer,
// and a second run folds the first into the record's history.
func TestRunRecordedExperimentWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_gossip.json")
	for i := 0; i < 2; i++ {
		if err := run([]string{"-exp", "gossip", "-json", path}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(raw), `"generated_at"`); got != 2 {
		t.Fatalf("record after two runs carries %d timestamps, want its own and one history entry:\n%s", got, raw)
	}
}

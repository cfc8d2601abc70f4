package simnet

import (
	"strings"
	"testing"
)

// TestComposedFaultsAndBrownout runs delivery faults and engine brownouts in
// the same run — Chaos has null engines and BackendChaos injects no delivery
// faults, so neither covers it; over the search harness it is one more
// definition. The accounting must keep the two failure kinds apart while
// both are happening: every forged delivery is charged as misbehaviour, and
// no engine failure is.
func TestComposedFaultsAndBrownout(t *testing.T) {
	const seed, rounds = 23, 5
	h, err := newSearchRun(searchSpec{seed: seed, nodes: 16, clients: 6, opsPerRound: 36, k: 2,
		faults: DefaultChaosFaults(), engines: true})
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	res := newSearchResult()
	schedule := GenBrownoutSchedule(seed, h.ids, BrownoutScheduleConfig{Steps: rounds * stepsPerRound})
	if err := h.run(schedule, rounds, res); err != nil {
		t.Fatal(err)
	}
	h.totals(res)

	if res.Sim.ContentFaults() == 0 || res.InjectedErrs+res.InjectedHangs == 0 || res.EngineFailedForwards == 0 {
		t.Fatalf("the run did not compose both fault kinds: %d content faults, %d+%d injected engine faults, %d engine-failed forwards",
			res.Sim.ContentFaults(), res.InjectedErrs, res.InjectedHangs, res.EngineFailedForwards)
	}
	if res.Misbehaved != res.Sim.ContentFaults() {
		t.Errorf("%d misbehaviour charges for %d forged deliveries: engine failures were charged to relays (or tampering went uncharged)",
			res.Misbehaved, res.Sim.ContentFaults())
	}
	if bad := res.checkCheckers(); len(bad) > 0 {
		t.Errorf("continuous checkers: %s", strings.Join(bad, "; "))
	}
	// A search either returns (possibly carrying an engine failure, whose
	// classes are all legitimate) or fails with a clean protocol error.
	if n := res.ErrClasses["unknown"]; n > 0 {
		t.Errorf("%d search(es) failed outside the clean protocol/engine error classes: %v", n, res.UnknownErrs)
	}
}

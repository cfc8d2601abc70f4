package adversary

import (
	"testing"
	"time"

	"cyclosa/internal/queries"
	"cyclosa/internal/textproc"
)

// handLog builds a tiny log with two clearly distinct users.
func handLog() *queries.Log {
	t0 := time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)
	mk := func(id int, user, text string) queries.Query {
		return queries.Query{ID: id, User: user, Text: text, Topic: "t", Time: t0.Add(time.Duration(id) * time.Minute)}
	}
	return &queries.Log{Queries: []queries.Query{
		mk(0, "alice", "kidney dialysis clinic"),
		mk(1, "alice", "kidney dialysis schedule"),
		mk(2, "alice", "kidney transplant list"),
		mk(3, "alice", "dialysis side effects"),
		mk(4, "bob", "football playoff schedule"),
		mk(5, "bob", "football playoff tickets"),
		mk(6, "bob", "football stadium tickets"),
		mk(7, "bob", "playoff bracket predictions"),
	}}
}

func TestNewProfiles(t *testing.T) {
	a := New(handLog(), Config{})
	users := a.Users()
	if len(users) != 2 || users[0] != "alice" || users[1] != "bob" {
		t.Fatalf("Users = %v", users)
	}
}

func TestSimilarity(t *testing.T) {
	a := New(handLog(), Config{})
	terms := textproc.Tokenize("kidney dialysis")
	aliceSim := a.profiles["alice"].index.Score(terms, a.alpha)
	bobSim := a.profiles["bob"].index.Score(terms, a.alpha)
	if aliceSim <= bobSim {
		t.Errorf("alice sim %.3f should exceed bob sim %.3f for a kidney query", aliceSim, bobSim)
	}
}

func TestIdentify(t *testing.T) {
	a := New(handLog(), Config{})
	user, ok := a.Identify("kidney dialysis treatment")
	if !ok || user != "alice" {
		t.Errorf("Identify = %q, %v; want alice", user, ok)
	}
	user, ok = a.Identify("football playoff results")
	if !ok || user != "bob" {
		t.Errorf("Identify = %q, %v; want bob", user, ok)
	}
	// A query unlike any profile must not be linked.
	if user, ok := a.Identify("quantum physics lecture"); ok {
		t.Errorf("unrelated query linked to %q", user)
	}
	if _, ok := a.Identify(""); ok {
		t.Error("empty query linked")
	}
}

func TestIdentifyThreshold(t *testing.T) {
	// With an impossible threshold nothing is ever linked.
	a := New(handLog(), Config{Threshold: 0.999})
	if _, ok := a.Identify("kidney dialysis clinic"); ok {
		t.Error("identification above threshold 0.999 should fail for partial matches")
	}
}

func TestPickReal(t *testing.T) {
	a := New(handLog(), Config{})
	candidates := []string{
		"random dictionary words",
		"kidney dialysis appointment",
		"celebrity gossip news",
	}
	if got := a.PickReal("alice", candidates); got != 1 {
		t.Errorf("PickReal = %d, want 1", got)
	}
	// All-implausible candidates: no pick.
	if got := a.PickReal("alice", []string{"foo bar", "baz qux"}); got != -1 {
		t.Errorf("PickReal on noise = %d, want -1", got)
	}
	if got := a.PickReal("nobody", candidates); got != -1 {
		t.Errorf("PickReal unknown user = %d, want -1", got)
	}
}

func TestIdentifyGroup(t *testing.T) {
	a := New(handLog(), Config{})
	group := []string{
		"football stadium parking", // bob-like fake
		"kidney dialysis clinic",   // alice's real query
		"zzz unknown words",
	}
	idx, user, ok := a.IdentifyGroup(group)
	if !ok {
		t.Fatal("group attack failed entirely")
	}
	// Both alice's and bob's queries are plausible; the attack must return
	// the single best pair. alice's exact profile query should win.
	if idx != 1 || user != "alice" {
		t.Errorf("IdentifyGroup = (%d, %q), want (1, alice)", idx, user)
	}
	// Group of only noise: no claim.
	if _, _, ok := a.IdentifyGroup([]string{"aa bb", "cc dd"}); ok {
		t.Error("noise group should not be identified")
	}
	if _, _, ok := a.IdentifyGroup(nil); ok {
		t.Error("empty group should not be identified")
	}
}

func TestLearn(t *testing.T) {
	a := New(handLog(), Config{})
	if _, ok := a.Identify("gardening tulip bulbs"); ok {
		t.Fatal("premature identification")
	}
	a.Learn("carol", "gardening tulip bulbs")
	a.Learn("carol", "gardening soil ph")
	user, ok := a.Identify("gardening tulip bulbs planting")
	if !ok || user != "carol" {
		t.Errorf("after Learn, Identify = %q, %v", user, ok)
	}
	a.Learn("carol", "") // no-op
	if len(a.Users()) != 3 {
		t.Errorf("Users = %v", a.Users())
	}
}

// On the synthetic workload, unprotected queries must re-identify at a
// substantial rate (the TOR bar of Fig 5 is ≈36%) while cross-user
// misattribution stays low.
func TestReIdentificationRateOnWorkload(t *testing.T) {
	log := queries.Generate(queries.GeneratorConfig{Seed: 40, NumUsers: 40, MeanQueriesPerUser: 60})
	train, test := log.Split(2.0 / 3.0)
	a := New(train, Config{})

	correct, wrong, total := 0, 0, 0
	for _, q := range test.Queries {
		total++
		user, ok := a.Identify(q.Text)
		if !ok {
			continue
		}
		if user == q.User {
			correct++
		} else {
			wrong++
		}
	}
	rate := float64(correct) / float64(total)
	if rate < 0.15 || rate > 0.65 {
		t.Errorf("re-identification rate = %.3f, want a substantial rate near the paper's 0.36", rate)
	}
	if wrong > correct {
		t.Errorf("misattributions (%d) exceed correct identifications (%d)", wrong, correct)
	}
}

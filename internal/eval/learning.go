package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"cyclosa/internal/stats"
)

// LearningAdversaryResult extends the threat model of §VII-E: the adversary
// augments its profiles with intercepted queries ("the additional knowledge
// of the attacker when intercepting queries"). Against TOR-style traffic
// the attacker can attribute and learn; against CYCLOSA the individually
// arriving fakes poison the learned profiles — replayed queries of user v
// get attributed to whoever the attacker believes sent them, degrading the
// profiles over time instead of sharpening them.
type LearningAdversaryResult struct {
	K       int
	Rounds  int
	Queries int
	// TORRates[r] is the unprotected re-identification rate in round r.
	TORRates []float64
	// CyclosaRates[r] is CYCLOSA's effective rate in round r.
	CyclosaRates []float64
}

// RunLearningAdversary replays the test stream in rounds; after each
// identification the adversary feeds the (query, claimed user) pair back
// into its profiles.
func RunLearningAdversary(w *World, k, queriesPerRound, rounds int) *LearningAdversaryResult {
	if k == 0 {
		k = 7
	}
	if queriesPerRound == 0 {
		queriesPerRound = 300
	}
	if rounds == 0 {
		rounds = 3
	}
	sample := w.TestSample(queriesPerRound * rounds)
	if len(sample) < rounds {
		rounds = 1
	}
	perRound := len(sample) / rounds
	pool := trainPool(w)

	res := &LearningAdversaryResult{K: k, Rounds: rounds, Queries: len(sample)}

	// Two independent adversaries, each learning from what it intercepts in
	// its own deployment.
	torAttack := w.NewAdversary()
	cycAttack := w.NewAdversary()
	rng := rand.New(rand.NewSource(w.Cfg.Seed + 970))

	for r := 0; r < rounds; r++ {
		chunk := sample[r*perRound : (r+1)*perRound]

		// TOR: every interception is a real query; correct attributions
		// sharpen the profile.
		attempts, successes := 0, 0
		for _, q := range chunk {
			attempts++
			if user, ok := torAttack.Identify(q.Text); ok {
				torAttack.Learn(user, q.Text)
				if user == q.User {
					successes++
				}
			}
		}
		res.TORRates = append(res.TORRates, float64(successes)/float64(max(1, attempts)))

		// CYCLOSA: interceptions mix real queries with replayed fakes; the
		// adversary cannot tell and learns from both.
		attempts, successes = 0, 0
		for _, q := range chunk {
			msgs := make([]string, 0, k+1)
			msgs = append(msgs, q.Text)
			for i := 0; i < k; i++ {
				msgs = append(msgs, pool[rng.Intn(len(pool))])
			}
			for i, m := range msgs {
				attempts++
				if user, ok := cycAttack.Identify(m); ok {
					cycAttack.Learn(user, m)
					if i == 0 && user == q.User {
						successes++
					}
				}
			}
		}
		res.CyclosaRates = append(res.CyclosaRates, float64(successes)/float64(max(1, attempts)))
	}
	return res
}

// String renders the per-round comparison.
func (r *LearningAdversaryResult) String() string {
	var b strings.Builder
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Extension: learning adversary over %d rounds (k=%d)", r.Rounds, r.K),
		Header: []string{"Round", "TOR rate", "CYCLOSA rate"},
	}
	for i := 0; i < r.Rounds; i++ {
		tbl.AddRow(
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.2f%%", 100*r.TORRates[i]),
			fmt.Sprintf("%.2f%%", 100*r.CyclosaRates[i]),
		)
	}
	b.WriteString(tbl.String())
	b.WriteString("(intercept-and-learn sharpens the attack on TOR traffic; CYCLOSA's replayed fakes poison it)\n")
	return b.String()
}

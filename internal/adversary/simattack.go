// Package adversary implements SimAttack (Petit et al., 2016), the user
// re-identification attack the paper uses to evaluate every protection
// mechanism (§VII-E). The adversary sits at the search engine, holds a
// profile of past queries per user (the training split), and tries to link
// intercepted queries back to their senders.
//
// The similarity metric follows the paper exactly: cosine similarity between
// the intercepted query and every profile query, ranked in ascending order
// and folded with exponential smoothing; a query is linked to a profile only
// if the aggregate exceeds 0.5 and a single profile attains the maximum.
//
// Three attack entry points cover the mechanism classes of Fig 5:
//
//   - Identify — anonymous single queries (TOR, CYCLOSA relays);
//   - PickReal — the sender is known and the adversary must find the real
//     query among fakes (TrackMeNot, GooPIR);
//   - IdentifyGroup — anonymous OR-groups where both the real query and the
//     sender must be recovered (PEAS, X-SEARCH).
package adversary

import (
	"sort"

	"cyclosa/internal/queries"
	"cyclosa/internal/textproc"
)

// DefaultThreshold is SimAttack's confidence threshold (§VII-E).
const DefaultThreshold = 0.5

// Profile is the adversary's knowledge about one user: the term vectors of
// the user's training queries, indexed for the similarity metric.
type Profile struct {
	User  string
	index *textproc.SimilarityIndex
}

// Size returns the number of profile queries.
func (p *Profile) Size() int { return p.index.Len() }

// SimAttack is the re-identification adversary.
type SimAttack struct {
	profiles  map[string]*Profile
	users     []string
	alpha     float64
	threshold float64
}

// Config tunes the attack.
type Config struct {
	// Alpha is the exponential smoothing factor (default 0.5).
	Alpha float64
	// Threshold is the minimum aggregate similarity to claim a match
	// (default 0.5).
	Threshold float64
}

// New builds the adversary from the training log (its prior knowledge).
func New(train *queries.Log, cfg Config) *SimAttack {
	if cfg.Alpha == 0 {
		cfg.Alpha = textproc.DefaultSmoothingAlpha
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	a := &SimAttack{
		profiles:  make(map[string]*Profile),
		alpha:     cfg.Alpha,
		threshold: cfg.Threshold,
	}
	for _, q := range train.Queries {
		a.profile(q.User).index.Add(textproc.Tokenize(q.Text))
	}
	sort.Strings(a.users)
	return a
}

// profile returns the user's profile, creating an empty one for a user not
// seen before. The caller re-sorts users after adding.
func (a *SimAttack) profile(user string) *Profile {
	p, ok := a.profiles[user]
	if !ok {
		p = &Profile{User: user, index: textproc.NewSimilarityIndex(0)}
		a.profiles[user] = p
		a.users = append(a.users, user)
	}
	return p
}

// Users returns the users the adversary has profiles for.
func (a *SimAttack) Users() []string {
	out := make([]string, len(a.users))
	copy(out, a.users)
	return out
}

// Learn adds an intercepted query to a user's profile (the adversary's
// additional knowledge while intercepting, §VII-E).
func (a *SimAttack) Learn(user, query string) {
	terms := textproc.Tokenize(query)
	if len(terms) == 0 {
		return
	}
	known := len(a.users)
	a.profile(user).index.Add(terms)
	if len(a.users) > known {
		sort.Strings(a.users)
	}
}

// Similarity returns the SimAttack metric between a query and a user's
// profile (0 for unknown users).
func (a *SimAttack) Similarity(user, query string) float64 {
	p, ok := a.profiles[user]
	if !ok {
		return 0
	}
	return p.index.Score(textproc.Tokenize(query), a.alpha)
}

// Identify attempts to link an anonymous query to a user. It succeeds only
// when the best-scoring profile exceeds the threshold and is the unique
// maximum (the confidence rule of §VII-E).
func (a *SimAttack) Identify(query string) (user string, ok bool) {
	terms := textproc.Tokenize(query)
	if len(terms) == 0 {
		return "", false
	}
	best, bestScore, tied := "", 0.0, false
	for _, u := range a.users {
		s := a.profiles[u].index.Score(terms, a.alpha)
		switch {
		case s > bestScore:
			best, bestScore, tied = u, s, false
		case s == bestScore && s > 0:
			tied = true
		}
	}
	if bestScore <= a.threshold || tied {
		return "", false
	}
	return best, true
}

// PickReal is the known-sender attack (TrackMeNot, GooPIR): among the
// candidate queries ostensibly from user, return the index of the one most
// similar to the user's profile, or -1 when no candidate clears the
// threshold.
func (a *SimAttack) PickReal(user string, candidates []string) int {
	p, ok := a.profiles[user]
	if !ok {
		return -1
	}
	bestIdx, bestScore := -1, a.threshold
	for i, q := range candidates {
		s := p.index.Score(textproc.Tokenize(q), a.alpha)
		if s > bestScore {
			bestIdx, bestScore = i, s
		}
	}
	return bestIdx
}

// IdentifyGroup is the anonymous-group attack (PEAS, X-SEARCH): the
// adversary receives k+1 queries in one obfuscated message, scores every
// (candidate, profile) pair, and claims the globally best pair if it clears
// the threshold. It returns the claimed real-query index and user.
func (a *SimAttack) IdentifyGroup(candidates []string) (queryIdx int, user string, ok bool) {
	bestIdx, bestUser, bestScore, tied := -1, "", 0.0, false
	for i, q := range candidates {
		terms := textproc.Tokenize(q)
		for _, u := range a.users {
			s := a.profiles[u].index.Score(terms, a.alpha)
			switch {
			case s > bestScore:
				bestIdx, bestUser, bestScore, tied = i, u, s, false
			case s == bestScore && s > 0 && (u != bestUser || i != bestIdx):
				tied = true
			}
		}
	}
	if bestScore <= a.threshold || tied || bestIdx < 0 {
		return -1, "", false
	}
	return bestIdx, bestUser, true
}

// IsUserLike is the known-sender classification attack (TrackMeNot): decide
// whether a query plausibly belongs to the user's own interests.
func (a *SimAttack) IsUserLike(user, query string) bool {
	return a.Similarity(user, query) > a.threshold
}

package accounting

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Wire bounds for a ledger payload. They exist so a malicious peer cannot
// balloon a receiver's memory through one gossip frame; a payload exceeding
// them is rejected whole (the sender is cut, matching the membership
// plane's treatment of malformed view frames). A ledger never holds more
// than one payload can carry, so every peer accepts its AppendWire.
const (
	// ledgerWireVersion is the codec version byte.
	ledgerWireVersion = 1
	// maxLedgerSubjects bounds distinct subjects per payload.
	maxLedgerSubjects = 1024
	// maxLedgerReplicas bounds observer entries per subject per side.
	maxLedgerReplicas = 256
	// maxLedgerIDLen bounds subject and replica ID lengths, matching the
	// membership wire codec's ID bound.
	maxLedgerIDLen = 1 << 10
)

// Ledger is a PN-counter CRDT keyed by subject (a node ID being accounted
// for). Per subject it keeps two grow-only maps, increments (P) and
// decrements (N), each keyed by the observing replica: a replica only ever
// raises its own entry, and merging takes the elementwise maximum. That
// makes Merge idempotent, commutative and associative, so misbehavior
// counts recorded on either side of a partition converge to the exact
// union after heal — no loss, no double-count, no coordinator.
//
// Value(subject) = sum(P) - sum(N): positive evidence of misbehavior minus
// pardons. All methods are safe for concurrent use.
//
// The ledger stays within the wire bounds: Inc and Pardon record nothing
// for a new subject once maxLedgerSubjects are held, or for an ID longer
// than maxLedgerIDLen, and MergeWire rejects a payload whose merge would
// pass a bound.
type Ledger struct {
	mu   sync.Mutex
	self string
	p    map[string]map[string]uint64
	n    map[string]map[string]uint64
}

// NewLedger builds an empty ledger whose local increments are recorded
// under replica ID self.
func NewLedger(self string) *Ledger {
	return &Ledger{
		self: self,
		p:    make(map[string]map[string]uint64),
		n:    make(map[string]map[string]uint64),
	}
}

// Self returns the replica ID this ledger records local evidence under.
func (l *Ledger) Self() string { return l.self }

// Inc charges subject with delta units of misbehavior observed locally.
func (l *Ledger) Inc(subject string, delta uint64) {
	l.mu.Lock()
	l.bump(l.p, subject, delta)
	l.mu.Unlock()
}

// Pardon credits subject with delta units (the N side), e.g. after an
// operator clears a node that misbehaved due to a since-fixed defect.
func (l *Ledger) Pardon(subject string, delta uint64) {
	l.mu.Lock()
	l.bump(l.n, subject, delta)
	l.mu.Unlock()
}

// bump adds delta to this replica's entry for subject on side, unless that
// would take the ledger past a wire bound. The caller holds l.mu.
func (l *Ledger) bump(side map[string]map[string]uint64, subject string, delta uint64) {
	if delta == 0 || subject == "" || len(subject) > maxLedgerIDLen || len(l.self) > maxLedgerIDLen {
		return
	}
	m := side[subject]
	if m == nil {
		if !l.holds(subject) && l.subjects() >= maxLedgerSubjects {
			return
		}
		m = make(map[string]uint64)
		side[subject] = m
	}
	if _, ok := m[l.self]; !ok && len(m) >= maxLedgerReplicas {
		return
	}
	m[l.self] += delta
}

// holds reports whether subject has an entry on either side. The caller
// holds l.mu.
func (l *Ledger) holds(subject string) bool {
	return l.p[subject] != nil || l.n[subject] != nil
}

// subjects counts the subjects with an entry on either side. The caller
// holds l.mu.
func (l *Ledger) subjects() int {
	n := len(l.p)
	for s := range l.n {
		if l.p[s] == nil {
			n++
		}
	}
	return n
}

// Value returns subject's net misbehavior count: total increments minus
// total pardons across every replica heard from.
func (l *Ledger) Value(subject string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sumSide(l.p[subject]) - sumSide(l.n[subject])
}

func sumSide(m map[string]uint64) int64 {
	var s int64
	for _, v := range m {
		s += int64(v)
	}
	return s
}

// Values snapshots every subject's net count, for ops surfaces (-mode
// view) and tests.
func (l *Ledger) Values() map[string]int64 {
	out := make(map[string]int64)
	l.mu.Lock()
	defer l.mu.Unlock()
	for s, m := range l.p {
		out[s] += sumSide(m)
	}
	for s, m := range l.n {
		out[s] -= sumSide(m)
	}
	return out
}

// AppendWire appends the ledger's full state to dst in the deterministic
// wire form (version byte; uvarint subject count; per subject, sorted:
// length-prefixed ID, then each side as uvarint entry count followed by
// sorted length-prefixed replica IDs with uvarint counts) and returns the
// extended slice. Deterministic bytes make payloads comparable across
// replicas and keep the chaos drivers' event logs stable per seed.
func (l *Ledger) AppendWire(dst []byte) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	subjects := make(map[string]struct{}, len(l.p)+len(l.n))
	for s := range l.p {
		subjects[s] = struct{}{}
	}
	for s := range l.n {
		subjects[s] = struct{}{}
	}
	order := make([]string, 0, len(subjects))
	for s := range subjects {
		order = append(order, s)
	}
	sort.Strings(order)

	dst = append(dst, ledgerWireVersion)
	dst = binary.AppendUvarint(dst, uint64(len(order)))
	for _, s := range order {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
		dst = appendSide(dst, l.p[s])
		dst = appendSide(dst, l.n[s])
	}
	return dst
}

func appendSide(dst []byte, m map[string]uint64) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = binary.AppendUvarint(dst, m[k])
	}
	return dst
}

// MergeWire folds a peer's wire-encoded ledger state into this one,
// elementwise-maximum per (subject, replica) entry. It returns the
// subjects whose net Value changed, sorted — the caller re-evaluates
// exactly those against its blacklist threshold. A malformed or
// over-bounds payload, or one whose merge would take the ledger past a
// wire bound, is rejected without applying any of it.
func (l *Ledger) MergeWire(payload []byte) ([]string, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("accounting: empty ledger payload")
	}
	if payload[0] != ledgerWireVersion {
		return nil, fmt.Errorf("accounting: ledger wire version %d unsupported", payload[0])
	}
	rest := payload[1:]
	count, rest, err := readUvarint(rest)
	if err != nil {
		return nil, fmt.Errorf("accounting: ledger subject count: %w", err)
	}
	if count > maxLedgerSubjects {
		return nil, fmt.Errorf("accounting: ledger subject count %d exceeds %d", count, maxLedgerSubjects)
	}

	parsed := make([]parsedSubject, 0, count)
	for i := uint64(0); i < count; i++ {
		var ps parsedSubject
		ps.id, rest, err = readString(rest)
		if err != nil {
			return nil, fmt.Errorf("accounting: ledger subject %d: %w", i, err)
		}
		ps.p, rest, err = readSide(rest)
		if err != nil {
			return nil, fmt.Errorf("accounting: ledger subject %q increments: %w", ps.id, err)
		}
		ps.n, rest, err = readSide(rest)
		if err != nil {
			return nil, fmt.Errorf("accounting: ledger subject %q decrements: %w", ps.id, err)
		}
		parsed = append(parsed, ps)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("accounting: ledger payload has %d trailing bytes", len(rest))
	}

	var changed []string
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.fits(parsed); err != nil {
		return nil, err
	}
	for _, ps := range parsed {
		before := sumSide(l.p[ps.id]) - sumSide(l.n[ps.id])
		mergeSide(l.p, ps.id, ps.p)
		mergeSide(l.n, ps.id, ps.n)
		if after := sumSide(l.p[ps.id]) - sumSide(l.n[ps.id]); after != before {
			changed = append(changed, ps.id)
		}
	}
	sort.Strings(changed)
	return changed, nil
}

type parsedSubject struct {
	id   string
	p, n []parsedEntry
}

type parsedEntry struct {
	replica string
	count   uint64
}

// fits reports an error if merging parsed would take the ledger past
// maxLedgerSubjects subjects, or a subject's side past maxLedgerReplicas
// replicas. The caller holds l.mu.
func (l *Ledger) fits(parsed []parsedSubject) error {
	// Per subject, the replicas the merge would add to each side. A subject
	// may repeat in a payload, so the sets span its occurrences.
	type growth struct{ p, n map[string]struct{} }
	grown := make(map[string]*growth)
	for _, ps := range parsed {
		g := grown[ps.id]
		if g == nil {
			g = &growth{}
			grown[ps.id] = g
		}
		g.p = newReplicas(g.p, l.p[ps.id], ps.p)
		g.n = newReplicas(g.n, l.n[ps.id], ps.n)
		if len(l.p[ps.id])+len(g.p) > maxLedgerReplicas || len(l.n[ps.id])+len(g.n) > maxLedgerReplicas {
			return fmt.Errorf("accounting: merging subject %q would pass %d replicas per side", ps.id, maxLedgerReplicas)
		}
	}
	held := l.subjects()
	for id, g := range grown {
		if !l.holds(id) && len(g.p)+len(g.n) > 0 {
			held++
		}
	}
	if held > maxLedgerSubjects {
		return fmt.Errorf("accounting: merging would hold %d subjects, over %d", held, maxLedgerSubjects)
	}
	return nil
}

// newReplicas adds to set the replicas of entries that mergeSide would add
// to have, and returns set.
func newReplicas(set map[string]struct{}, have map[string]uint64, entries []parsedEntry) map[string]struct{} {
	for _, e := range entries {
		if _, ok := have[e.replica]; !ok && e.count > 0 {
			if set == nil {
				set = make(map[string]struct{})
			}
			set[e.replica] = struct{}{}
		}
	}
	return set
}

// mergeSide raises subject's entries on side to those of entries. A count
// of 0 adds nothing, so no subject or replica is held without evidence.
func mergeSide(side map[string]map[string]uint64, subject string, entries []parsedEntry) {
	for _, e := range entries {
		m := side[subject]
		if e.count <= m[e.replica] {
			continue
		}
		if m == nil {
			m = make(map[string]uint64, len(entries))
			side[subject] = m
		}
		m[e.replica] = e.count
	}
}

func readSide(b []byte) ([]parsedEntry, []byte, error) {
	count, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, fmt.Errorf("entry count: %w", err)
	}
	if count > maxLedgerReplicas {
		return nil, nil, fmt.Errorf("entry count %d exceeds %d", count, maxLedgerReplicas)
	}
	entries := make([]parsedEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		var e parsedEntry
		e.replica, b, err = readString(b)
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d replica: %w", i, err)
		}
		e.count, b, err = readUvarint(b)
		if err != nil {
			return nil, nil, fmt.Errorf("entry %d count: %w", i, err)
		}
		entries = append(entries, e)
	}
	return entries, b, nil
}

func readString(b []byte) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return "", nil, fmt.Errorf("length: %w", err)
	}
	if n == 0 || n > maxLedgerIDLen {
		return "", nil, fmt.Errorf("id length %d out of range (1..%d)", n, maxLedgerIDLen)
	}
	if uint64(len(b)) < n {
		return "", nil, fmt.Errorf("id truncated: want %d bytes, have %d", n, len(b))
	}
	return string(b[:n]), b[n:], nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, b[n:], nil
}

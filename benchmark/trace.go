package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names the seam a span was recorded at. The order is the nesting
// order: each kind's parent is the kind before it on the same path.
type spanKind uint8

const (
	// spanSearch is the measured call itself (Node.Search, or
	// Network.RelayRoundTrip on the forward workload).
	spanSearch spanKind = iota
	// spanDeliver is one Deliver through the conduit installed with
	// NetworkOptions.Conduit.
	spanDeliver
	// spanServe is the server Handler's Deliver (the relay's whole work).
	spanServe
	// spanBackend is the engine call as the relay makes it, outside the
	// backend.Stack.
	spanBackend
	// spanEngine is the engine call inside the stack.
	spanEngine
	spanKinds
)

var spanNames = [spanKinds]string{"core.search", "conduit.deliver", "core.relay_serve", "backend.search", "engine.search"}

// span is one crossing of a seam. op is the index of the operation that
// caused it, relay the node index of the path it belongs to (-1 on the
// spanSearch root); together they identify the parent.
type span struct {
	start, end int64
	op         uint32
	relay      int16
	kind       spanKind
}

// traceEpoch is the protocol time of operation 0 in a traced run.
var traceEpoch = time.Unix(1_141_171_200, 0) // 2006-03-01, the log window

// tracer collects spans from the benchmark's own wrappers. Spans stay in a
// preallocated array (one atomic add to claim a slot) until the run ends.
//
// Correlation rides on the protocol's own `now` argument, which every layer
// hands to the next unchanged — through the data frame, the enclave gate and
// the backend stack, down to the engine. The untraced run passes one constant
// now for every op; the traced run passes traceEpoch + the op's index, so a
// wrapper four layers down recovers which operation it is serving without
// goroutine-local state and without touching the program.
type tracer struct {
	t0    time.Time
	index map[string]int16 // node id -> node index
	spans []span
	next  atomic.Int64
	// recordBytes sums request and response record sizes seen at the
	// spanDeliver seam (the unit costs reuse the mean).
	recordBytes atomic.Uint64
}

// spansPerPath is how many spans one path of one operation records.
const spansPerPath = int(spanKinds) - 1

func newTracer(ids []string, ops int) *tracer {
	t := &tracer{t0: time.Now(), index: make(map[string]int16, len(ids))}
	for i, id := range ids {
		t.index[id] = int16(i)
	}
	// Room for every op at k = kmax plus slack for retried paths.
	t.spans = make([]span, ops*(1+spansPerPath*(worldKMax+2)))
	return t
}

func (t *tracer) clock() int64 { return int64(time.Since(t.t0)) }

// nowFor is the protocol time that carries op's index.
func nowFor(op int) time.Time { return traceEpoch.Add(time.Duration(op)) }

// record stores a span that started at start and ends now. Spans beyond the
// preallocated room are counted in next and otherwise dropped; so are the
// warm-up's.
func (t *tracer) record(kind spanKind, now time.Time, relay string, start int64) {
	op := now.Sub(traceEpoch)
	if op < 0 {
		return // warm-up runs at benchNow, before the epoch
	}
	end := t.clock()
	slot := t.next.Add(1) - 1
	if slot >= int64(len(t.spans)) {
		return
	}
	r := int16(-1)
	if kind != spanSearch {
		r = t.index[relay]
	}
	t.spans[slot] = span{start: start, end: end, op: uint32(op), relay: r, kind: kind}
}

// recorded returns the spans stored so far and how many were dropped.
func (t *tracer) recorded() (spans []span, dropped int64) {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// layerTimes is what the spans of a traced run reduce to: self times per
// layer in nanoseconds, one entry per span (or per operation for the
// search-level ones).
type layerTimes struct {
	searchWall  []int64
	searchSelf  []int64
	pathSkew    []int64
	deliverSelf []int64
	serveSelf   []int64
	backendSelf []int64
	engine      []int64
	// namedOnSlowest is, per operation, the sum of the named layers' self
	// times along its slowest path (engine time excluded: it is external).
	namedOnSlowest []int64
	delivers       int
	// badTargets counts operations whose Deliver targets were not distinct
	// or included the client itself.
	badTargets int
}

// sortedSpans returns a copy of spans ordered by operation, then path (the
// root's relay -1 first), then nesting depth.
func sortedSpans(spans []span) []span {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.op != b.op {
			return a.op < b.op
		}
		if a.relay != b.relay {
			return a.relay < b.relay
		}
		return a.kind < b.kind
	})
	return sorted
}

// reduceSpans groups spans by operation and computes every layer's self
// time. clientOf and realRelayOf give, per op index, the issuing node and the
// relay that carried the real query (-1 when the op has no real/fake split).
func reduceSpans(spans []span, clientOf []int32, realRelayOf []int16) layerTimes {
	sorted := sortedSpans(spans)

	var lt layerTimes
	var children []interval
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].op == sorted[i].op {
			j++
		}
		group := sorted[i:j]
		i = j
		// relay -1 sorts first: group[0] is the root when it was recorded.
		root := group[0]
		if root.kind != spanSearch {
			continue // an op cut off by the end of the window
		}
		op := int(root.op)

		children = children[:0]
		var slowest, realEnd int64
		var slowestNamed int64
		bad := false
		for p := 1; p < len(group); {
			q := p
			for q < len(group) && group[q].relay == group[p].relay {
				q++
			}
			path := group[p:q] // one relay's spans, in nesting order
			p = q
			if path[0].kind != spanDeliver {
				continue
			}
			var dur [spanKinds]int64
			for _, s := range path {
				dur[s.kind] = s.end - s.start
			}
			deliver := path[0]
			children = append(children, interval{deliver.start, deliver.end})
			lt.delivers++
			deliverSelf := dur[spanDeliver] - dur[spanServe]
			serveSelf := dur[spanServe] - dur[spanBackend]
			backendSelf := dur[spanBackend] - dur[spanEngine]
			lt.deliverSelf = append(lt.deliverSelf, deliverSelf)
			lt.serveSelf = append(lt.serveSelf, serveSelf)
			lt.backendSelf = append(lt.backendSelf, backendSelf)
			lt.engine = append(lt.engine, dur[spanEngine])

			// A second deliver to the same relay sorts into the same path.
			if (len(path) > 1 && path[1].kind == spanDeliver) || int32(deliver.relay) == clientOf[op] {
				bad = true
			}
			if deliver.end > slowest {
				slowest = deliver.end
				slowestNamed = deliverSelf + serveSelf + backendSelf
			}
			if deliver.relay == realRelayOf[op] {
				realEnd = deliver.end
			}
		}
		if bad {
			lt.badTargets++
		}
		self := selfTime(interval{root.start, root.end}, children)
		lt.searchWall = append(lt.searchWall, root.end-root.start)
		lt.searchSelf = append(lt.searchSelf, self)
		lt.namedOnSlowest = append(lt.namedOnSlowest, self+slowestNamed)
		if realEnd > 0 {
			lt.pathSkew = append(lt.pathSkew, slowest-realEnd)
		}
	}
	return lt
}

// traceFileOps bounds how many operations' spans the trace file holds; the
// metrics are computed from all of them.
const traceFileOps = 2000

// traceFileSpan is the on-disk form of a span.
type traceFileSpan struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index into spans, -1 for a root
	SearchID string `json:"search_id"`
	Relay    string `json:"relay,omitempty"`
}

// writeTrace writes the spans of the first traceFileOps operations to
// benchmark/out/<workload>.trace.json. search_id is the client node plus the
// operation's index in the schedule.
func writeTrace(dir, workload string, stamp map[string]any, spans []span, ids []string, clientOf []int32) (string, error) {
	kept := sortedSpans(spans)
	kept = kept[:sort.Search(len(kept), func(i int) bool { return kept[i].op >= traceFileOps })]
	out := make([]traceFileSpan, len(kept))
	for i, s := range kept {
		fs := traceFileSpan{
			Name:     spanNames[s.kind],
			StartNS:  s.start,
			EndNS:    s.end,
			Parent:   -1,
			SearchID: fmt.Sprintf("%s/%d", ids[clientOf[s.op]], s.op),
		}
		if s.relay >= 0 {
			fs.Relay = ids[s.relay]
		}
		// The parent is the nearest earlier span of the same op that is one
		// kind up: the root for a deliver, the same path's span otherwise.
		for p := i - 1; p >= 0 && kept[p].op == s.op && s.kind != spanSearch; p-- {
			if kept[p].kind == s.kind-1 && (s.kind == spanDeliver || kept[p].relay == s.relay) {
				fs.Parent = p
				break
			}
		}
		out[i] = fs
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(map[string]any{"stamp": stamp, "spans_total": len(spans), "spans": out})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

package eval

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// readRecord decodes the record at path into a fresh value of like's type.
func readRecord(t *testing.T, path string, like Record) Record {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back := reflect.New(reflect.TypeOf(like).Elem()).Interface().(Record)
	if err := json.Unmarshal(raw, back); err != nil {
		t.Fatalf("record does not decode: %v\n%s", err, raw)
	}
	return back
}

// sameJSON reports whether two encodings differ in white space only
// (WriteRecord re-indents the entries it carries).
func sameJSON(t *testing.T, a, b []byte) bool {
	t.Helper()
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&cb, b); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// checkRecordWriter is the contract of the one record writer, given two
// distinguishable runs of a recorded experiment and a field the first run's
// history entry must carry: a record reads back as written; the second write
// carries the first run's summary; the third puts the newest first and
// carries the older entry exactly as it was, keys this build no longer
// writes included.
func checkRecordWriter(t *testing.T, carries string, first, second Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")

	if err := WriteRecord(path, first); err != nil {
		t.Fatal(err)
	}
	if first.stamp().GeneratedAt == "" {
		t.Fatal("the writer did not stamp the record")
	}
	if back := readRecord(t, path, first); !reflect.DeepEqual(back, first) {
		t.Fatalf("round trip mangled the record:\n got %+v\nwant %+v", back, first)
	}
	firstSummary, err := json.Marshal(first.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(firstSummary, []byte(first.stamp().GeneratedAt)) || !bytes.Contains(firstSummary, []byte(carries)) {
		t.Fatalf("summary %s does not carry its run's timestamp and %s", firstSummary, carries)
	}

	if err := WriteRecord(path, second); err != nil {
		t.Fatal(err)
	}
	hist := readRecord(t, path, second).stamp().History
	if len(hist) != 1 || !sameJSON(t, hist[0], firstSummary) {
		t.Fatalf("history after two writes = %s, want [%s]", hist, firstSummary)
	}
	secondSummary, err := json.Marshal(second.Summary())
	if err != nil {
		t.Fatal(err)
	}

	if err := WriteRecord(path, first); err != nil {
		t.Fatal(err)
	}
	hist = readRecord(t, path, first).stamp().History
	if len(hist) != 2 || !sameJSON(t, hist[0], secondSummary) || !sameJSON(t, hist[1], firstSummary) {
		t.Fatalf("history after three writes = %s, want [%s %s]", hist, secondSummary, firstSummary)
	}

	const old = `{"generated_at":"2026-05-01T00:00:00Z","retired_key":2.5}`
	stub := `{"benchmark":"x","generated_at":"2026-06-01T00:00:00Z","history":[` + old + `]}`
	if err := os.WriteFile(path, []byte(stub), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecord(path, second); err != nil {
		t.Fatal(err)
	}
	hist = readRecord(t, path, second).stamp().History
	if len(hist) != 2 || !strings.Contains(string(hist[0]), "2026-06-01") || !sameJSON(t, hist[1], []byte(old)) {
		t.Fatalf("history = %s, want the stub's summary then %s verbatim", hist, old)
	}
}

// The table: checkRecordWriter over every recorded experiment. The rows keep
// the names the per-bench tests had before there was one writer.

func TestGossipBenchHistoryCarryForward(t *testing.T) {
	checkRecordWriter(t, `"converged_rounds":9`,
		&GossipBenchResult{Benchmark: "x", ConvergedRounds: 9, ChurnReconvergedRounds: 80, NsPerRound: 5e6},
		&GossipBenchResult{Benchmark: "x", ConvergedRounds: 8})
}

func TestBackendBenchHistoryCarryForward(t *testing.T) {
	checkRecordWriter(t, `"availability":0.97`,
		&BackendBenchResult{Benchmark: "x", Availability: 0.97, RecoveryAvailability: 1, P95Ms: 4.2, Findings: []string{"v"}},
		&BackendBenchResult{Benchmark: "x", Availability: 0.99})
}

func TestAccountingBenchHistoryCarryForward(t *testing.T) {
	checkRecordWriter(t, `"throttled":400`,
		&AccountingBenchResult{Benchmark: "x", Admitted: 20, Throttled: 400, AdmittedPerSec: 80},
		&AccountingBenchResult{Benchmark: "x", Admitted: 25})
}

func TestPrivacyBenchWriteJSONHistory(t *testing.T) {
	checkRecordWriter(t, `"rate_at_k_max":0.05`,
		&PrivacyBenchResult{Benchmark: "x",
			Sweep: []PrivacyKResult{{K: 0, Rate: 0.3, Recall: 0.3}, {K: 7, Rate: 0.05, Recall: 0.4}},
			WAN:   &PrivacyWANResult{ConvergedAt: 4}},
		&PrivacyBenchResult{Benchmark: "x", Sweep: []PrivacyKResult{{K: 0, Rate: 0.2}}})
}

// TestCarryHistoryIgnoresGarbage: a corrupt or foreign file must start a
// fresh history rather than poison the write.
func TestCarryHistoryIgnoresGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_gossip.json")
	r := &GossipBenchResult{Benchmark: "x"}
	// The second is a record with no timestamp, e.g. a hand-written stub.
	for _, prev := range []string{"not json", `{"benchmark":"x"}`} {
		if err := os.WriteFile(path, []byte(prev), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := WriteRecord(path, r); err != nil {
			t.Fatal(err)
		}
		if hist := readRecord(t, path, r).stamp().History; len(hist) != 0 {
			t.Fatalf("previous file %q produced history: %s", prev, hist)
		}
	}
}

// TestWriteRecordFailureKeepsPreviousFile: the record is replaced by a
// rename, so a write that fails leaves the committed file as it was.
func TestWriteRecordFailureKeepsPreviousFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_gossip.json")
	if err := WriteRecord(path, &GossipBenchResult{Benchmark: "x", ConvergedRounds: 9}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the temporary file goes fails the write for any
	// user, root included.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteRecord(path, &GossipBenchResult{Benchmark: "x", ConvergedRounds: 8}); err == nil {
		t.Fatal("write through a blocked temporary file reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed write changed the record:\nbefore %s\nafter  %s", before, after)
	}
}

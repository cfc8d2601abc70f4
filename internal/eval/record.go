package eval

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"
)

// Stamp is the tail every BENCH_*.json record shares. A recorded result
// embeds it last, so the two keys close the file; WriteRecord fills both.
type Stamp struct {
	// GeneratedAt stamps the measurement (RFC 3339).
	GeneratedAt string `json:"generated_at"`
	// History carries the summaries of prior measurements forward, newest
	// first, each exactly as the run that produced it wrote it.
	History []json.RawMessage `json:"history,omitempty"`
}

func (s *Stamp) stamp() *Stamp { return s }

// Record is a result kept PR over PR in a BENCH_*.json: a pointer to a
// struct that embeds Stamp. Summary is the few fields of one run worth
// keeping once a newer run has replaced it — the shape of a history entry.
type Record interface {
	Summary() any
	stamp() *Stamp
}

// WriteRecord is the only place a BENCH_*.json is written. It stamps r,
// folds the summary of the record path holds now (and the history that
// record carried) into r's history, and replaces the file through a
// temporary file and a rename, so a failed write leaves the previous record
// as it was. No file, a file that is not this kind of record, or one with no
// timestamp (a hand-written stub) starts a fresh history.
func WriteRecord(path string, r Record) error {
	s := r.stamp()
	s.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	s.History = nil
	if prev, err := os.ReadFile(path); err == nil {
		old := reflect.New(reflect.TypeOf(r).Elem()).Interface().(Record)
		if json.Unmarshal(prev, old) == nil && old.stamp().GeneratedAt != "" {
			entry, err := json.Marshal(old.Summary())
			if err != nil {
				return fmt.Errorf("eval: summarize the record in %s: %w", path, err)
			}
			s.History = append([]json.RawMessage{entry}, old.stamp().History...)
		}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("eval: encode the record for %s: %w", path, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) // best effort: the rename's error is the one to report
		return err
	}
	return nil
}

package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"specrepair/internal/bench"
	"specrepair/internal/repair"
)

// CheckpointRecord is one journaled (suite, technique, spec) result — the
// fields the study's final artifacts derive from (REP, TM, SM, effort
// stats), plus the printed candidate so CLI consumers can replay what a
// completed job produced. Wall-clock measurements are deliberately absent:
// a resumed run re-reports effort, not time.
type CheckpointRecord struct {
	Suite     string  `json:"suite"`
	Technique string  `json:"technique"`
	Spec      string  `json:"spec"`
	Repaired  bool    `json:"repaired"`
	REP       int     `json:"rep"`
	TM        float64 `json:"tm"`
	SM        float64 `json:"sm"`

	Candidates int `json:"candidates,omitempty"`
	AnalyzerC  int `json:"analyzerCalls,omitempty"`
	TestRuns   int `json:"testRuns,omitempty"`
	Iterations int `json:"iterations,omitempty"`

	Err       string `json:"err,omitempty"`
	Candidate string `json:"candidate,omitempty"`
}

// Checkpoint is an append-only JSONL journal of completed evaluation jobs,
// built on the shared Journal machinery. Each completed (suite, technique,
// spec) job appends one record; on resume the journal is loaded and
// already-journaled jobs are served from it instead of re-running. Appends
// are flushed per record, so a crash loses at most the record being written
// — a truncated final line is tolerated (and dropped) on load.
type Checkpoint struct {
	mu      sync.Mutex
	journal *Journal
	done    map[string]*CheckpointRecord
}

func checkpointKey(suite, technique, spec string) string {
	return suite + "\x00" + technique + "\x00" + spec
}

// OpenCheckpoint opens the journal at path. Without resume it starts a
// fresh journal and refuses to overwrite an existing file — a leftover
// journal is either a run to resume or stale state the operator should
// remove explicitly. With resume it loads the existing journal and reopens
// it for appending; a missing file starts an empty journal (resuming a run
// that never checkpointed is just a fresh run). A truncated final line —
// the signature of a crash mid-append — is dropped; any other malformed
// content is an error, since silently skipping records would desynchronize
// the resumed run from the journal.
func OpenCheckpoint(path string, resume bool) (*Checkpoint, error) {
	done := map[string]*CheckpointRecord{}
	if !resume {
		j, err := CreateJournal(path)
		if errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or remove it to start over", path)
		}
		if err != nil {
			return nil, fmt.Errorf("creating checkpoint: %w", err)
		}
		return &Checkpoint{journal: j, done: done}, nil
	}
	j, err := OpenJournal(path, func(line []byte) error {
		rec := &CheckpointRecord{}
		if err := json.Unmarshal(line, rec); err != nil {
			return err
		}
		done[checkpointKey(rec.Suite, rec.Technique, rec.Spec)] = rec
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Checkpoint{journal: j, done: done}, nil
}

// NewMemoryCheckpoint returns a journal that records only in memory, with
// no backing file. A sharded-study coordinator run without -checkpoint uses
// it so completions still flow through the exact journal-and-replay path
// that guarantees byte-identical artifacts — it just doesn't survive a
// coordinator crash.
func NewMemoryCheckpoint() *Checkpoint {
	return &Checkpoint{done: map[string]*CheckpointRecord{}}
}

// Len reports how many completed jobs the journal holds.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Lookup returns the journaled record for one job, or nil.
func (c *Checkpoint) Lookup(suite, technique, spec string) *CheckpointRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done[checkpointKey(suite, technique, spec)]
}

// Append journals one completed job and flushes it to disk (memory-only
// journals just index it).
func (c *Checkpoint) Append(rec *CheckpointRecord) error {
	c.mu.Lock()
	c.done[checkpointKey(rec.Suite, rec.Technique, rec.Spec)] = rec
	j := c.journal
	c.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Append(rec)
}

// Close flushes and closes the journal file. The in-memory index stays
// usable for lookups.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	return c.journal.Close()
}

// RecordOf converts one evaluation result for the named spec into its
// journal form. The runner journals it, a sharded-study worker posts it back
// to the coordinator, and the specrepair CLI journals it with the printed
// candidate added.
func RecordOf(suite, spec string, res *Result) *CheckpointRecord {
	rec := &CheckpointRecord{
		Suite:      suite,
		Technique:  res.Technique,
		Spec:       spec,
		Repaired:   res.Outcome.Repaired,
		REP:        res.REP,
		TM:         res.TM,
		SM:         res.SM,
		Candidates: res.Outcome.Stats.CandidatesTried,
		AnalyzerC:  res.Outcome.Stats.AnalyzerCalls,
		TestRuns:   res.Outcome.Stats.TestRuns,
		Iterations: res.Outcome.Stats.Iterations,
	}
	if res.Err != nil {
		rec.Err = res.Err.Error()
	}
	return rec
}

// materialize converts a journaled record back into a Result for the given
// spec. The candidate module is not reconstructed — final artifacts derive
// from the scored fields, and the printed candidate stays available on the
// record itself.
func (rec *CheckpointRecord) materialize(spec *bench.Spec) *Result {
	res := &Result{
		Spec:      spec,
		Technique: rec.Technique,
		REP:       rec.REP,
		TM:        rec.TM,
		SM:        rec.SM,
		Outcome: repair.Outcome{
			Repaired: rec.Repaired,
			Stats: repair.Stats{
				CandidatesTried: rec.Candidates,
				AnalyzerCalls:   rec.AnalyzerC,
				TestRuns:        rec.TestRuns,
				Iterations:      rec.Iterations,
			},
		},
	}
	if rec.Err != "" {
		res.Err = errors.New(rec.Err)
	}
	return res
}

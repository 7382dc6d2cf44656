package core

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"specrepair/internal/bench"
	"specrepair/internal/repair"
	"specrepair/internal/telemetry"
)

// blockingTool parks until its context ends, modeling a pathological job
// that would wedge the study without per-job deadlines.
type blockingTool struct{}

func (blockingTool) Name() string { return "blocking" }
func (blockingTool) Repair(ctx context.Context, _ repair.Problem) (repair.Outcome, error) {
	<-ctx.Done()
	return repair.Outcome{}, ctx.Err()
}

// panickyTool panics on every job.
type panickyTool struct{}

func (panickyTool) Name() string { return "panicky" }
func (panickyTool) Repair(context.Context, repair.Problem) (repair.Outcome, error) {
	panic("boom")
}

// fineTool succeeds instantly without repairing anything.
type fineTool struct{}

func (fineTool) Name() string { return "fine" }
func (fineTool) Repair(context.Context, repair.Problem) (repair.Outcome, error) {
	return repair.Outcome{}, nil
}

func fakeFactory(name string, tool repair.Technique) Factory {
	return Factory{Name: name, NewWith: func(*telemetry.Collector) repair.Technique { return tool }}
}

func TestRunnerTimeoutIsolatesWedgedJobs(t *testing.T) {
	suite := miniSuite(t)
	reg := telemetry.New()
	runner := &Runner{Workers: 2, Telemetry: reg, Timeout: 30 * time.Millisecond}
	factories := []Factory{
		fakeFactory("blocking", blockingTool{}),
		fakeFactory("fine", fineTool{}),
	}
	eval, err := runner.Evaluate(suite, factories)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range eval.Results["blocking"] {
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Errorf("blocking/%s: err = %v, want DeadlineExceeded", name, res.Err)
		}
	}
	for name, res := range eval.Results["fine"] {
		if res.Err != nil {
			t.Errorf("fine/%s: unexpected err %v", name, res.Err)
		}
	}
	want := int64(len(suite.Specs))
	if got := reg.CounterValue(telemetry.CtrJobTimeouts); got != want {
		t.Errorf("timeout counter = %d, want %d", got, want)
	}
	if got := reg.CounterValue(telemetry.CtrJobCancelled); got != 0 {
		t.Errorf("cancelled counter = %d, want 0 (deadlines are not cancellations)", got)
	}
}

func TestRunnerRecoversPanics(t *testing.T) {
	suite := miniSuite(t)
	reg := telemetry.New()
	runner := &Runner{Workers: 2, Telemetry: reg}
	factories := []Factory{
		fakeFactory("panicky", panickyTool{}),
		fakeFactory("fine", fineTool{}),
	}
	eval, err := runner.Evaluate(suite, factories)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range eval.Results["panicky"] {
		var pe *PanicError
		if !errors.As(res.Err, &pe) {
			t.Fatalf("panicky/%s: err = %v, want *PanicError", name, res.Err)
		}
		if pe.Value != "boom" || pe.Stack == "" {
			t.Errorf("panicky/%s: malformed PanicError %+v", name, pe)
		}
		if pe.Error() != "technique panicked: boom" {
			t.Errorf("panicky/%s: non-deterministic error string %q", name, pe.Error())
		}
	}
	if got, want := reg.CounterValue(telemetry.CtrJobPanics), int64(len(suite.Specs)); got != want {
		t.Errorf("panic counter = %d, want %d", got, want)
	}
	if len(eval.Results["fine"]) != len(suite.Specs) {
		t.Error("sibling technique did not complete alongside the panicking one")
	}
}

// cancellingTool cancels the run-wide context the first time it runs, then
// reports the cancellation like a real technique observing its context.
type cancellingTool struct {
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancellingTool) Name() string { return "cancelling" }
func (c *cancellingTool) Repair(ctx context.Context, _ repair.Problem) (repair.Outcome, error) {
	c.once.Do(c.cancel)
	<-ctx.Done()
	return repair.Outcome{}, ctx.Err()
}

func TestRunnerCancellationStopsRunAndSkipsJournal(t *testing.T) {
	suite := miniSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ckptPath := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ckpt, err := OpenCheckpoint(ckptPath, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()

	reg := telemetry.New()
	runner := &Runner{Workers: 2, Telemetry: reg, Checkpoint: ckpt}
	factories := []Factory{fakeFactory("cancelling", &cancellingTool{cancel: cancel})}
	eval, err := runner.EvaluateContext(ctx, suite, factories)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if reg.CounterValue(telemetry.CtrJobCancelled) == 0 {
		t.Error("no job counted as cancelled")
	}
	// Cancelled jobs are abandoned work: they must not be journaled, so a
	// resumed run re-executes them.
	for name, res := range eval.Results["cancelling"] {
		if !errors.Is(res.Err, context.Canceled) {
			continue
		}
		if ckpt.Lookup(suite.Name, "cancelling", name) != nil {
			t.Errorf("cancelled job %s was journaled", name)
		}
	}
}

func TestEvaluateRejectsDuplicateSpecNames(t *testing.T) {
	suite := miniSuite(t)
	dup := &bench.Suite{Name: suite.Name, Specs: append(append([]*bench.Spec{}, suite.Specs...), suite.Specs[0])}
	runner := &Runner{Workers: 1}
	if _, err := runner.Evaluate(dup, []Factory{fakeFactory("fine", fineTool{})}); err == nil {
		t.Fatal("duplicate spec names must be rejected, not silently overwritten")
	}
}

// TestRunnerCheckpointResume replays a fully journaled run: every job must be
// served from the checkpoint with identical scores and zero re-execution.
func TestRunnerCheckpointResume(t *testing.T) {
	suite := miniSuite(t)
	var factories []Factory
	for _, f := range StudyFactories(1) {
		if f.Name == "BeAFix" || f.Name == "Single-Round_None" {
			factories = append(factories, f)
		}
	}
	ckptPath := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ckpt, err := OpenCheckpoint(ckptPath, false)
	if err != nil {
		t.Fatal(err)
	}
	first, err := (&Runner{Workers: 2, Checkpoint: ckpt}).Evaluate(suite, factories)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenCheckpoint(ckptPath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	reg := telemetry.New()
	second, err := (&Runner{Workers: 2, Checkpoint: reopened, Telemetry: reg}).Evaluate(suite, factories)
	if err != nil {
		t.Fatal(err)
	}

	total := int64(len(factories) * len(suite.Specs))
	if got := reg.CounterValue(telemetry.CtrJobResumed); got != total {
		t.Errorf("resumed counter = %d, want %d", got, total)
	}
	if got := reg.CounterValue(telemetry.CtrJobs); got != 0 {
		t.Errorf("jobs counter = %d, want 0 (nothing should re-run)", got)
	}
	assertSameScores(t, first, second, factories)
}

// TestRunnerResumeAfterInterrupt simulates a killed run by truncating the
// journal to a prefix, then checks the resumed evaluation matches an
// uninterrupted one on every artifact-relevant field.
func TestRunnerResumeAfterInterrupt(t *testing.T) {
	suite := miniSuite(t)
	var factories []Factory
	for _, f := range StudyFactories(1) {
		if f.Name == "BeAFix" || f.Name == "Single-Round_None" {
			factories = append(factories, f)
		}
	}
	ckptPath := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ckpt, err := OpenCheckpoint(ckptPath, false)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := (&Runner{Workers: 2, Checkpoint: ckpt}).Evaluate(suite, factories)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	// Keep only the first half of the journal, plus a torn final line — the
	// on-disk state after a kill mid-append.
	truncateJournal(t, ckptPath, ckpt.Len()/2)

	reopened, err := OpenCheckpoint(ckptPath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != ckpt.Len()/2 {
		t.Fatalf("journal holds %d records after truncation, want %d", reopened.Len(), ckpt.Len()/2)
	}
	resumed, err := (&Runner{Workers: 2, Checkpoint: reopened}).Evaluate(suite, factories)
	if err != nil {
		t.Fatal(err)
	}
	assertSameScores(t, reference, resumed, factories)
	// The journal must now be complete again: resume + re-run re-covers
	// every job, so a second resume would replay everything.
	if reopened.Len() != len(factories)*len(suite.Specs) {
		t.Errorf("journal holds %d records after resume, want %d", reopened.Len(), len(factories)*len(suite.Specs))
	}
}

func assertSameScores(t *testing.T, a, b *Evaluation, factories []Factory) {
	t.Helper()
	for _, f := range factories {
		for name, ra := range a.Results[f.Name] {
			rb := b.Results[f.Name][name]
			if rb == nil {
				t.Errorf("%s/%s missing from second run", f.Name, name)
				continue
			}
			if ra.REP != rb.REP || ra.TM != rb.TM || ra.SM != rb.SM ||
				ra.Outcome.Repaired != rb.Outcome.Repaired ||
				ra.Outcome.Stats != rb.Outcome.Stats {
				t.Errorf("%s/%s diverged:\nfirst  %+v\nsecond %+v", f.Name, name, ra, rb)
			}
		}
		if a.TechStats[f.Name] != b.TechStats[f.Name] {
			t.Errorf("%s: technique stats diverged: %+v vs %+v",
				f.Name, a.TechStats[f.Name], b.TechStats[f.Name])
		}
	}
}

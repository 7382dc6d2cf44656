package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"specrepair/internal/telemetry"
)

func TestRunJobJoinsPanicOntoBodyError(t *testing.T) {
	reg := telemetry.New()
	bodyErr := errors.New("oracle unavailable")
	res := RunJob(context.Background(), telemetry.NewCollector(reg), 1, 0, "T", "S/a",
		func(ctx context.Context, res *Result) {
			res.Err = bodyErr
			panic("boom")
		})
	if !errors.Is(res.Err, bodyErr) {
		t.Errorf("err = %v, want the body's error kept", res.Err)
	}
	var pe *PanicError
	if !errors.As(res.Err, &pe) || pe.Value != "boom" || pe.Stack == "" {
		t.Fatalf("err = %v, want a *PanicError for boom with a stack", res.Err)
	}
	if res.Technique != "T" {
		t.Errorf("technique = %q, want T", res.Technique)
	}
	if got := reg.CounterValue(telemetry.CtrJobPanics); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	if got := reg.CounterValue(telemetry.CtrJobsErrored); got != 1 {
		t.Errorf("errored counter = %d, want 1", got)
	}
}

func TestRunJobTimeout(t *testing.T) {
	reg := telemetry.New()
	res := RunJob(context.Background(), telemetry.NewCollector(reg), 1, 20*time.Millisecond, "T", "S/a",
		func(ctx context.Context, res *Result) {
			<-ctx.Done()
			res.Err = ctx.Err()
		})
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", res.Err)
	}
	if got := reg.CounterValue(telemetry.CtrJobTimeouts); got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}
	// A per-job timeout under a live caller is a completed, errored job.
	if res.Abandoned {
		t.Error("timed-out job is abandoned")
	}
	if got := reg.CounterValue(telemetry.CtrJobCancelled); got != 0 {
		t.Errorf("cancelled counter = %d after a timeout, want 0", got)
	}

	// A job abandoned because the caller's context was cancelled is not a
	// timeout, even when its error also carries a deadline.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res = RunJob(ctx, telemetry.NewCollector(reg), 1, time.Minute, "T", "S/b",
		func(ctx context.Context, res *Result) { res.Err = errors.Join(context.DeadlineExceeded, ctx.Err()) })
	if !errors.Is(res.Err, context.Canceled) || !res.Abandoned {
		t.Fatalf("err = %v, abandoned = %v, want Canceled and abandoned", res.Err, res.Abandoned)
	}
	if got := reg.CounterValue(telemetry.CtrJobTimeouts); got != 1 {
		t.Errorf("timeout counter = %d after a cancelled job, want 1", got)
	}
}

func TestRunJobAbandonment(t *testing.T) {
	// The parent is cancelled while the body runs. Whether the body reports
	// the cancellation or swallows it and returns a clean result, the job
	// did not complete under a live context and is abandoned.
	for _, swallow := range []bool{false, true} {
		reg := telemetry.New()
		ctx, cancel := context.WithCancel(context.Background())
		res := RunJob(ctx, telemetry.NewCollector(reg), 1, time.Minute, "T", "S/a",
			func(ctx context.Context, res *Result) {
				cancel()
				<-ctx.Done()
				if !swallow {
					res.Err = ctx.Err()
				}
			})
		if !res.Abandoned {
			t.Errorf("swallow=%v: parent cancelled mid-body, but the job is not abandoned", swallow)
		}
		if got := reg.CounterValue(telemetry.CtrJobCancelled); got != 1 {
			t.Errorf("swallow=%v: cancelled counter = %d, want 1", swallow, got)
		}
		if got := reg.CounterValue(telemetry.CtrJobTimeouts); got != 0 {
			t.Errorf("swallow=%v: timeout counter = %d, want 0", swallow, got)
		}
	}

	// A body reporting Canceled is abandoned even under a live parent.
	reg := telemetry.New()
	res := RunJob(context.Background(), telemetry.NewCollector(reg), 1, 0, "T", "S/b",
		func(ctx context.Context, res *Result) { res.Err = fmt.Errorf("oracle: %w", context.Canceled) })
	if !res.Abandoned {
		t.Error("a job reporting Canceled is not abandoned")
	}

	// A body that returns before the parent is cancelled completed.
	reg = telemetry.New()
	ctx, cancel := context.WithCancel(context.Background())
	res = RunJob(ctx, telemetry.NewCollector(reg), 1, 0, "T", "S/c",
		func(ctx context.Context, res *Result) { res.Outcome.Repaired = true })
	cancel()
	if res.Abandoned {
		t.Error("a job that returned before its parent was cancelled is abandoned")
	}
	if got := reg.CounterValue(telemetry.CtrJobCancelled); got != 0 {
		t.Errorf("cancelled counter = %d, want 0", got)
	}
}

// jobSpans returns the recorded spans of kind "job".
func (s *recordingSink) jobSpans() []telemetry.SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []telemetry.SpanRecord
	for _, sr := range s.spans {
		if sr.Name == "job" {
			out = append(out, sr)
		}
	}
	return out
}

func TestRunJobEmitsOneJobSpan(t *testing.T) {
	for _, withParent := range []bool{true, false} {
		reg := telemetry.New()
		sink := &recordingSink{}
		reg.SetSink(sink)
		col := telemetry.NewCollector(reg)
		ctx := context.Background()
		parent := reg.StartSpan("study")
		if withParent {
			ctx = telemetry.ContextWithSpan(ctx, parent)
		}
		res := RunJob(ctx, col, 3, 0, "ATR", "S/a", func(ctx context.Context, res *Result) {
			if sp := telemetry.SpanFromContext(ctx); sp.Kind() != "job" {
				t.Errorf("body context carries span %q, want job", sp.Kind())
			}
			col.RecordSolve(time.Millisecond, 7, 9, 11, false)
			res.Outcome.Repaired = true
			res.Outcome.Stats.CandidatesTried = 5
			res.REP = 1
		})
		parent.End()
		if res.Err != nil {
			t.Fatal(res.Err)
		}

		jobs := sink.jobSpans()
		if len(jobs) != 1 {
			t.Fatalf("withParent=%v: %d job spans, want 1", withParent, len(jobs))
		}
		sr := jobs[0]
		if withParent && (sr.ParentID != parent.ID() || sr.TraceID != parent.TraceID()) {
			t.Errorf("job span %+v is not a child of the context's span %s", sr, parent.ID())
		}
		if !withParent && (sr.ParentID != "" || sr.TraceID != sr.SpanID || sr.SpanID == "") {
			t.Errorf("job span %+v is not a root", sr)
		}
		if sr.Lane != 3 {
			t.Errorf("lane = %d, want 3", sr.Lane)
		}
		wantAttrs := map[string]string{"technique": "ATR", "spec": "S/a", "outcome": telemetry.OutcomeRepaired}
		for k, v := range wantAttrs {
			if sr.Attrs[k] != v {
				t.Errorf("attr %s = %q, want %q", k, sr.Attrs[k], v)
			}
		}
		wantMetrics := map[string]int64{"rep": 1, "candidates": 5, "solves": 1, "conflicts": 7, "decisions": 9, "propagations": 11}
		for k, v := range wantMetrics {
			if sr.Metrics[k] != v {
				t.Errorf("metric %s = %d, want %d", k, sr.Metrics[k], v)
			}
		}
		if sr.DurationNs <= 0 {
			t.Errorf("duration = %d, want positive", sr.DurationNs)
		}
	}
}

func TestRunJobAttributesOnlyItsOwnEffort(t *testing.T) {
	reg := telemetry.New()
	col := telemetry.NewCollector(reg)
	solves := func(n int) func(context.Context, *Result) {
		return func(context.Context, *Result) {
			for i := 0; i < n; i++ {
				col.RecordSolve(time.Microsecond, 1, 1, 1, false)
			}
		}
	}
	// Work recorded outside any job belongs to no job.
	col.RecordSolve(time.Microsecond, 1, 1, 1, false)
	RunJob(context.Background(), col, 1, 0, "A", "S/a", solves(2))
	col.RecordSolve(time.Microsecond, 1, 1, 1, false)
	RunJob(context.Background(), col, 1, 0, "B", "S/a", solves(3))

	got := map[string]int64{}
	for _, ts := range reg.Techniques() {
		got[ts.Technique] = ts.Solves
	}
	if got["A"] != 2 || got["B"] != 3 {
		t.Errorf("attributed solves = %v, want A:2 B:3", got)
	}
	if total := reg.CounterValue(telemetry.CtrSolves); total != 7 {
		t.Errorf("registry solves = %d, want 7", total)
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"specrepair/internal/telemetry"
)

// PanicError wraps a panic recovered from a repair technique, attributing it
// to the job that raised it while the rest of the run continues.
type PanicError struct {
	Value any
	Stack string
}

// Error renders the panic value; the captured stack is available on the
// struct for diagnostics but excluded here so error strings stay
// deterministic.
func (e *PanicError) Error() string { return fmt.Sprintf("technique panicked: %v", e.Value) }

// RunJob executes one (technique, spec) job under the guards every job path
// shares — the study runner, the repair service and the specrepair CLI — and
// returns what body reported on the Result it was handed.
//
// RunJob bounds the job by timeout when it is positive, and runs body under
// a "job" span: a child of ctx's span, or a root span when ctx has none. The
// span sits on the given display lane and carries the technique and spec as
// attributes. The job's solver and cache effort is read from col, the
// worker's collector, so col must run one job at a time. A panic in body is
// recovered and joined onto Result.Err as a *PanicError. The job is then
// classified, counted as a timeout, a recovered panic or a cancellation
// where it was one, and recorded on col's registry, which ends the span.
//
// RunJob alone decides whether the job completed or was abandoned; see
// Result.Abandoned. Every client journals, posts or finalizes a job only
// when it was not abandoned.
func RunJob(ctx context.Context, col *telemetry.Collector, lane int, timeout time.Duration, technique, spec string, body func(ctx context.Context, res *Result)) *Result {
	reg := col.Registry()
	caller := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	span := telemetry.SpanFromContext(ctx).Child("job")
	if span == nil {
		span = reg.StartSpan("job")
	}
	span.SetLane(lane)
	span.SetAttr("technique", technique)
	span.SetAttr("spec", spec)
	ctx = telemetry.ContextWithSpan(ctx, span)

	res := &Result{Technique: technique}
	col.BeginJob()
	start := time.Now()
	func() {
		defer func() {
			if v := recover(); v != nil {
				res.Err = errors.Join(res.Err, &PanicError{Value: v, Stack: string(debug.Stack())})
			}
		}()
		body(ctx, res)
	}()
	dur := time.Since(start)
	// Once the caller's context is dead, a body that nominally completed may
	// have been perturbed by it in ways that do not surface as Canceled (an
	// oracle query failing fast inside a technique that tolerates oracle
	// errors), so its result is not guaranteed to match a clean run's.
	// Canceled can only come from the caller's context, since the job's own
	// context carries a deadline only.
	res.Abandoned = caller.Err() != nil || errors.Is(res.Err, context.Canceled)

	outcome := telemetry.OutcomeFailed
	switch {
	case res.Err != nil:
		outcome = telemetry.OutcomeError
	case res.Outcome.Repaired:
		outcome = telemetry.OutcomeRepaired
	}
	// A job deadline surfaces as DeadlineExceeded; a job that also carries
	// Canceled was abandoned, not timed out.
	if errors.Is(res.Err, context.DeadlineExceeded) && !errors.Is(res.Err, context.Canceled) {
		reg.Counter(telemetry.CtrJobTimeouts).Inc()
	}
	if res.Abandoned {
		reg.Counter(telemetry.CtrJobCancelled).Inc()
	}
	var pe *PanicError
	if errors.As(res.Err, &pe) {
		reg.Counter(telemetry.CtrJobPanics).Inc()
	}
	st := res.Outcome.Stats
	reg.RecordJob(telemetry.JobRecord{
		Technique:     technique,
		Spec:          spec,
		Duration:      dur,
		Outcome:       outcome,
		REP:           res.REP,
		Candidates:    st.CandidatesTried,
		AnalyzerCalls: st.AnalyzerCalls,
		TestRuns:      st.TestRuns,
		Iterations:    st.Iterations,
		Effort:        col.TakeJobEffort(),
		Span:          span,
	})
	return res
}

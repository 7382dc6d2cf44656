// Package telemetry is the study pipeline's low-overhead instrumentation
// layer: atomic named counters, sharded log-scale histograms, per-job spans
// with a pluggable JSONL trace sink, and exporters (Prometheus text format,
// expvar-style JSON, a live HTTP endpoint).
//
// One *Registry is threaded through the whole pipeline the way
// anacache.Cache is: the SAT solver records per-solve latency and effort,
// the analyzer records per-entry-point cache hit/miss latency and
// translation sizes, the repair techniques record live search counters, and
// the evaluation runner records one span per (technique, spec) job.
//
// Everything is nil-safe: a nil *Registry (and the nil *Collector and nil
// *Counter it hands out) turns every recording call into a no-op branch, so
// uninstrumented runs pay nothing and produce byte-identical results.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known series names. Components record under these so exporters and
// the run-report agree on what exists.
const (
	CtrJobs         = "jobs.completed"
	CtrJobsRepaired = "jobs.repaired"
	CtrJobsErrored  = "jobs.errored"

	// Fault-tolerance counters: jobs cut off by the per-job deadline, jobs
	// whose technique panicked (recovered and attributed), jobs restored from
	// a resume checkpoint without re-running, and jobs abandoned because the
	// whole run was cancelled.
	CtrJobTimeouts  = "job.timeouts"
	CtrJobPanics    = "job.panics_recovered"
	CtrJobResumed   = "job.resumed"
	CtrJobCancelled = "job.cancelled"

	CtrSolves          = "sat.solves"
	CtrConflicts       = "sat.conflicts"
	CtrDecisions       = "sat.decisions"
	CtrPropagations    = "sat.propagations"
	CtrBudgetExhausted = "sat.budget_exhausted"

	CtrAnalyzerHits   = "analyzer.cache_hits"
	CtrAnalyzerMisses = "analyzer.cache_misses"

	// Incremental candidate evaluation: long-lived sessions opened, candidate
	// queries answered on a shared solver, queries that fell back to fresh
	// solving, and the learnt clauses already attached when each incremental
	// solver query started (the carryover from earlier candidates).
	CtrIncSessions  = "incremental.sessions"
	CtrIncQueries   = "incremental.queries"
	CtrIncFallbacks = "incremental.fallbacks"
	CtrIncCarried   = "incremental.carried_learnts"

	// Sharded study runs: coordinator-side counters for the lease protocol.
	// Leases granted to workers, leases reaped after their TTL lapsed without
	// a heartbeat, straggler ranges handed to a second worker (work
	// stealing), job completions accepted into the journal, duplicate
	// completions dropped by first-wins resolution, heartbeats received, and
	// workers turned away because their corpus digest did not match the
	// coordinator's.
	CtrShardLeases     = "shard.leases_granted"
	CtrShardExpired    = "shard.leases_expired"
	CtrShardSteals     = "shard.ranges_stolen"
	CtrShardCompleted  = "shard.jobs_completed"
	CtrShardDuplicates = "shard.duplicates_dropped"
	CtrShardHeartbeats = "shard.heartbeats"
	CtrShardRejected   = "shard.workers_rejected"

	// Repair service (repaird): submissions admitted into the queue,
	// duplicate submissions answered from an existing content-addressed job,
	// submissions rejected by admission control (bounded queue full or
	// daemon draining), jobs finished (terminal state reached, split into
	// completed vs failed), and queued jobs restored from the job journal on
	// daemon restart.
	CtrServiceSubmitted = "service.jobs_submitted"
	CtrServiceDeduped   = "service.jobs_deduplicated"
	CtrServiceRejected  = "service.jobs_rejected"
	CtrServiceCompleted = "service.jobs_completed"
	CtrServiceFailed    = "service.jobs_failed"
	CtrServiceResumed   = "service.jobs_resumed"

	HistSolveNs           = "sat.solve_ns"
	HistConflictsPerSolve = "sat.conflicts_per_solve"
	HistDecisionsPerSolve = "sat.decisions_per_solve"
	HistHitNs             = "analyzer.hit_ns"
	HistMissNs            = "analyzer.miss_ns"
	HistRelVars           = "translate.rel_vars"
	HistSolverVars        = "translate.solver_vars"
	HistClauses           = "translate.clauses"
	HistJobDurationNs     = "job.duration_ns"
)

// Job outcomes as recorded on spans.
const (
	OutcomeRepaired = "repaired"
	OutcomeFailed   = "failed"
	OutcomeError    = "error"
)

// labelSep separates a series' base name from an optional technique label
// ("job.duration_ns|BeAFix"). Exporters render the suffix as a label.
const labelSep = "|"

// Counter is a named monotonic counter. A nil *Counter ignores updates, so
// callers may hold counters obtained from a nil Registry.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is the concurrency-safe root of one run's instrumentation. All
// methods are safe on a nil receiver (and become no-ops), which is how
// telemetry is disabled.
type Registry struct {
	start time.Time

	counters sync.Map // string -> *Counter
	hists    sync.Map // string -> *Histogram
	gauges   sync.Map // string -> func() int64

	// sinkv holds the installed SpanSink (boxed so the pointer can be read
	// without Registry.mu on every span emission).
	sinkv atomic.Pointer[sinkHolder]

	// spanIDs allocates trace-wide unique span IDs; see tracer.go.
	spanIDs atomic.Uint64
	// trackActive enables live span bookkeeping (the -dashboard data source):
	// in-flight spans and cumulative per-kind self time. Off by default so
	// plain traced runs pay nothing for it.
	trackActive atomic.Bool
	active      sync.Map // *Span -> struct{}
	kindSelf    sync.Map // kind string -> *atomic.Int64 (cumulative self ns)

	mu    sync.Mutex
	techs map[string]*techAgg
	specs map[string]*specAgg
}

// sinkHolder boxes a SpanSink for atomic.Pointer storage.
type sinkHolder struct{ s SpanSink }

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		start: time.Now(),
		techs: map[string]*techAgg{},
		specs: map[string]*specAgg{},
	}
}

// Counter returns the named counter, creating it on first use (nil when the
// registry is nil).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Histogram returns the named histogram, creating it on first use (nil when
// the registry is nil).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, &Histogram{})
	return v.(*Histogram)
}

// SetGauge registers a callback sampled at export time (e.g. live cache
// statistics owned by another component).
func (r *Registry) SetGauge(name string, f func() int64) {
	if r == nil || f == nil {
		return
	}
	r.gauges.Store(name, f)
}

// SetSink installs the span sink receiving one record per finished span
// (nil removes it). Install before the run starts.
func (r *Registry) SetSink(s SpanSink) {
	if r == nil {
		return
	}
	if s == nil {
		r.sinkv.Store(nil)
		return
	}
	r.sinkv.Store(&sinkHolder{s: s})
}

// currentSink reads the installed sink (nil when absent or nil registry).
func (r *Registry) currentSink() SpanSink {
	if r == nil {
		return nil
	}
	if h := r.sinkv.Load(); h != nil {
		return h.s
	}
	return nil
}

// Tracing reports whether a span sink is installed, i.e. whether starting
// spans produces anything. Span construction is skipped entirely when false.
func (r *Registry) Tracing() bool { return r.currentSink() != nil }

// CounterValue reads one counter by name (0 when absent or nil registry).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter).Value()
	}
	return 0
}

// HistogramSnapshot snapshots one histogram by name.
func (r *Registry) HistogramSnapshot(name string) (HistSnapshot, bool) {
	if r == nil {
		return HistSnapshot{}, false
	}
	v, ok := r.hists.Load(name)
	if !ok {
		return HistSnapshot{}, false
	}
	return v.(*Histogram).Snapshot(), true
}

// Uptime is the time since the registry was created.
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Brief is a cheap point-in-time snapshot of headline counters, suitable for
// per-job progress callbacks.
type Brief struct {
	Jobs            int64
	Repaired        int64
	Solves          int64
	Conflicts       int64
	BudgetExhausted int64
	CacheHits       int64
	CacheMisses     int64
}

// Brief reads the headline counters (zero value for a nil registry).
func (r *Registry) Brief() Brief {
	if r == nil {
		return Brief{}
	}
	return Brief{
		Jobs:            r.CounterValue(CtrJobs),
		Repaired:        r.CounterValue(CtrJobsRepaired),
		Solves:          r.CounterValue(CtrSolves),
		Conflicts:       r.CounterValue(CtrConflicts),
		BudgetExhausted: r.CounterValue(CtrBudgetExhausted),
		CacheHits:       r.CounterValue(CtrAnalyzerHits),
		CacheMisses:     r.CounterValue(CtrAnalyzerMisses),
	}
}

// techAgg accumulates per-technique job aggregates (guarded by Registry.mu).
type techAgg struct {
	jobs, repaired, errors                          int64
	candidates, analyzerCalls, testRuns, iterations int64
	solves, conflicts, solveNs                      int64
	dur                                             *Histogram
}

// specAgg accumulates per-spec job aggregates (guarded by Registry.mu).
type specAgg struct {
	jobs, durNs, maxDurNs, conflicts, solves int64
}

// JobRecord describes one finished (technique, spec) evaluation job.
type JobRecord struct {
	Technique string
	Spec      string
	Duration  time.Duration
	// Outcome is OutcomeRepaired, OutcomeFailed, or OutcomeError.
	Outcome string
	// REP is the study's independent repair verdict (1 = equisatisfiable
	// with ground truth).
	REP int
	// Technique-reported search effort.
	Candidates    int
	AnalyzerCalls int
	TestRuns      int
	Iterations    int
	// Effort is the solver/cache work attributed to this job.
	Effort JobEffort
	// Span, when non-nil, is the job's trace span. RecordJob writes the
	// outcome, REP and effort onto it and ends it.
	Span *Span
}

// RecordJob folds one finished job into counters, the per-technique and
// per-spec aggregates and the duration histograms, then ends its span.
func (r *Registry) RecordJob(jr JobRecord) {
	jr.endSpan()
	if r == nil {
		return
	}
	r.Counter(CtrJobs).Inc()
	switch jr.Outcome {
	case OutcomeRepaired:
		r.Counter(CtrJobsRepaired).Inc()
	case OutcomeError:
		r.Counter(CtrJobsErrored).Inc()
	}
	ns := jr.Duration.Nanoseconds()
	r.Histogram(HistJobDurationNs).Observe(ns)

	r.mu.Lock()
	ta := r.techs[jr.Technique]
	if ta == nil {
		ta = &techAgg{dur: &Histogram{}}
		r.techs[jr.Technique] = ta
	}
	ta.jobs++
	if jr.Outcome == OutcomeRepaired {
		ta.repaired++
	}
	if jr.Outcome == OutcomeError {
		ta.errors++
	}
	ta.candidates += int64(jr.Candidates)
	ta.analyzerCalls += int64(jr.AnalyzerCalls)
	ta.testRuns += int64(jr.TestRuns)
	ta.iterations += int64(jr.Iterations)
	ta.solves += jr.Effort.Solves
	ta.conflicts += jr.Effort.Conflicts
	ta.solveNs += jr.Effort.SolveNs
	ta.dur.Observe(ns)

	sa := r.specs[jr.Spec]
	if sa == nil {
		sa = &specAgg{}
		r.specs[jr.Spec] = sa
	}
	sa.jobs++
	sa.durNs += ns
	if ns > sa.maxDurNs {
		sa.maxDurNs = ns
	}
	sa.conflicts += jr.Effort.Conflicts
	sa.solves += jr.Effort.Solves
	r.mu.Unlock()
}

// endSpan writes the job's outcome as an attribute and its REP verdict and
// effort as metrics, then ends the span. REP is always written; zero effort
// counts are left out to keep job lines short.
func (jr JobRecord) endSpan() {
	sp := jr.Span
	if sp == nil {
		return
	}
	sp.SetAttr("outcome", jr.Outcome)
	sp.SetMetric("rep", int64(jr.REP))
	e := jr.Effort
	for _, m := range [...]struct {
		key string
		v   int64
	}{
		{"candidates", int64(jr.Candidates)},
		{"analyzer_calls", int64(jr.AnalyzerCalls)},
		{"test_runs", int64(jr.TestRuns)},
		{"iterations", int64(jr.Iterations)},
		{"solves", e.Solves},
		{"conflicts", e.Conflicts},
		{"decisions", e.Decisions},
		{"propagations", e.Propagations},
		{"budget_exhausted", e.BudgetExhausted},
		{"solve_ns", e.SolveNs},
		{"cache_hits", e.CacheHits},
		{"cache_misses", e.CacheMisses},
		{"inc_queries", e.IncQueries},
		{"inc_fallbacks", e.IncFallbacks},
		{"inc_carried_learnts", e.IncCarriedLearnts},
	} {
		if m.v != 0 {
			sp.SetMetric(m.key, m.v)
		}
	}
	sp.End()
}

// unixNs projects t onto the registry's timeline: the registry's wall-clock
// epoch plus a monotonic delta. Mixing raw UnixNano starts with monotonic
// durations would let a wall-clock step (NTP) break parent/child interval
// nesting; deriving every timestamp from one epoch keeps them consistent.
func (r *Registry) unixNs(t time.Time) int64 {
	return r.start.UnixNano() + t.Sub(r.start).Nanoseconds()
}

// TechniqueStat is a snapshot of one technique's aggregates.
type TechniqueStat struct {
	Technique string
	Jobs      int64
	Repaired  int64
	Errors    int64
	// Technique-reported effort sums.
	Candidates    int64
	AnalyzerCalls int64
	TestRuns      int64
	Iterations    int64
	// Attributed solver effort.
	Solves    int64
	Conflicts int64
	SolveNs   int64
	// Duration distributes the per-job wall clock (nanoseconds).
	Duration HistSnapshot
}

// Techniques snapshots per-technique aggregates, sorted by name.
func (r *Registry) Techniques() []TechniqueStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TechniqueStat, 0, len(r.techs))
	for name, ta := range r.techs {
		out = append(out, TechniqueStat{
			Technique:     name,
			Jobs:          ta.jobs,
			Repaired:      ta.repaired,
			Errors:        ta.errors,
			Candidates:    ta.candidates,
			AnalyzerCalls: ta.analyzerCalls,
			TestRuns:      ta.testRuns,
			Iterations:    ta.iterations,
			Solves:        ta.solves,
			Conflicts:     ta.conflicts,
			SolveNs:       ta.solveNs,
			Duration:      ta.dur.Snapshot(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Technique < out[j].Technique })
	return out
}

// SpecStat is a snapshot of one spec's aggregates across all techniques.
type SpecStat struct {
	Spec          string
	Jobs          int64
	DurationNs    int64
	MaxDurationNs int64
	Conflicts     int64
	Solves        int64
}

// Specs snapshots per-spec aggregates, sorted by name.
func (r *Registry) Specs() []SpecStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpecStat, 0, len(r.specs))
	for name, sa := range r.specs {
		out = append(out, SpecStat{
			Spec:          name,
			Jobs:          sa.jobs,
			DurationNs:    sa.durNs,
			MaxDurationNs: sa.maxDurNs,
			Conflicts:     sa.conflicts,
			Solves:        sa.solves,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec < out[j].Spec })
	return out
}

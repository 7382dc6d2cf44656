// Package core is the study's orchestration layer: the registry of all
// twelve repair techniques under their paper configurations, a parallel
// evaluation runner that scores every technique on every benchmark entry
// (REP, TM, SM), and the hybrid-combination analysis of RQ3.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/anacache"
	"specrepair/internal/analyzer"
	"specrepair/internal/bench"
	"specrepair/internal/llm"
	"specrepair/internal/metrics"
	"specrepair/internal/repair"
	"specrepair/internal/repair/arepair"
	"specrepair/internal/repair/atr"
	"specrepair/internal/repair/beafix"
	"specrepair/internal/repair/icebar"
	"specrepair/internal/repair/multiround"
	"specrepair/internal/repair/singleround"
	"specrepair/internal/telemetry"
)

// TechniqueNames lists the twelve techniques in the paper's table order.
var TechniqueNames = []string{
	"ARepair", "ICEBAR", "BeAFix", "ATR",
	"Single-Round_Loc+Fix", "Single-Round_Loc", "Single-Round_Pass",
	"Single-Round_None", "Single-Round_Loc+Pass",
	"Multi-Round_None", "Multi-Round_Generic", "Multi-Round_Auto",
}

// TraditionalNames lists the four traditional tools in table order.
var TraditionalNames = TechniqueNames[:4]

// LLMNames lists the eight LLM configurations in table order.
var LLMNames = TechniqueNames[4:]

// Factory builds a fresh technique instance. Instances are not required to
// be safe for concurrent use, so the runner creates one per worker. NewWith
// binds the instance to a telemetry collector (nil for none) so a worker's
// solver and analyzer effort is attributed to the jobs it runs.
type Factory struct {
	Name    string
	NewWith func(col *telemetry.Collector) repair.Technique
}

// New builds an uninstrumented instance.
func (f Factory) New() repair.Technique { return f.NewWith(nil) }

// searchBudgets keeps whole-benchmark runs tractable: the traditional
// tools' candidate caps trade a little repair power for wall-clock time,
// uniformly across techniques (the paper's tools have timeouts of the same
// nature).
const (
	beafixMaxCandidates = 60
	atrMaxCandidates    = 150
)

// FactoryOptions configures how the study factories build their analyzers.
type FactoryOptions struct {
	// Cache is the analysis cache shared by every technique's analyzer
	// (nil for private uncached analyzers).
	Cache *anacache.Cache
	// DisableIncremental makes every technique validate candidates on the
	// fresh per-candidate analyzer path instead of the long-lived
	// incremental evaluation session. Verdicts — and therefore study
	// results — are identical either way; this is the A/B baseline.
	DisableIncremental bool
}

// StudyFactories returns the twelve techniques with the study's
// configurations, each with a private uncached analyzer. The seed drives
// the simulated LLM.
func StudyFactories(seed int64) []Factory {
	return StudyFactoriesWith(seed, FactoryOptions{})
}

// StudyFactoriesWith returns the twelve techniques under full factory
// configuration. With a shared cache, the heavy overlap between techniques'
// candidate spaces — BeAFix and ATR enumerate many of the same mutants,
// ICEBAR and the Multi-Round loops re-check near-identical intermediate
// specs — is solved once instead of once per technique per worker.
func StudyFactoriesWith(seed int64, o FactoryOptions) []Factory {
	cache := o.Cache
	newAnalyzer := func(col *telemetry.Collector) *analyzer.Analyzer {
		return analyzer.New(analyzer.Options{
			Cache:              cache,
			Telemetry:          col,
			DisableIncremental: o.DisableIncremental,
		})
	}
	fs := []Factory{
		{Name: "ARepair", NewWith: func(col *telemetry.Collector) repair.Technique {
			return arepair.New(arepair.Options{Telemetry: col})
		}},
		{Name: "ICEBAR", NewWith: func(col *telemetry.Collector) repair.Technique {
			opts := icebar.DefaultOptions()
			opts.Analyzer = newAnalyzer(col)
			opts.Cache = cache
			opts.Telemetry = col
			return icebar.New(opts)
		}},
		{Name: "BeAFix", NewWith: func(col *telemetry.Collector) repair.Technique {
			opts := beafix.DefaultOptions()
			opts.MaxCandidates = beafixMaxCandidates
			opts.Analyzer = newAnalyzer(col)
			opts.Cache = cache
			opts.Telemetry = col
			return beafix.New(opts)
		}},
		{Name: "ATR", NewWith: func(col *telemetry.Collector) repair.Technique {
			opts := atr.DefaultOptions()
			opts.MaxCandidates = atrMaxCandidates
			opts.Analyzer = newAnalyzer(col)
			opts.Cache = cache
			opts.Telemetry = col
			return atr.New(opts)
		}},
	}
	for _, setting := range singleround.Settings {
		setting := setting
		fs = append(fs, Factory{
			Name: "Single-Round_" + setting.String(),
			NewWith: func(col *telemetry.Collector) repair.Technique {
				return singleround.New(singleround.Options{
					Setting:   setting,
					Client:    llm.NewSimulatedModel(seed),
					Analyzer:  newAnalyzer(col),
					Telemetry: col,
				})
			},
		})
	}
	for _, fb := range []llm.FeedbackKind{llm.FeedbackNone, llm.FeedbackGeneric, llm.FeedbackAuto} {
		fb := fb
		fs = append(fs, Factory{
			Name: "Multi-Round_" + fb.String(),
			NewWith: func(col *telemetry.Collector) repair.Technique {
				return multiround.New(multiround.Options{
					Feedback:  fb,
					Client:    llm.NewSimulatedModel(seed),
					Analyzer:  newAnalyzer(col),
					Cache:     cache,
					Telemetry: col,
				})
			},
		})
	}
	return fs
}

// FactoryByName finds a study factory.
func FactoryByName(seed int64, name string) (Factory, error) {
	return FactoryByNameWith(seed, name, FactoryOptions{})
}

// FactoryByNameWith finds a study factory under full factory configuration.
func FactoryByNameWith(seed int64, name string, o FactoryOptions) (Factory, error) {
	for _, f := range StudyFactoriesWith(seed, o) {
		if f.Name == name {
			return f, nil
		}
	}
	return Factory{}, fmt.Errorf("unknown technique %q", name)
}

// Result is one (technique, spec) evaluation record.
type Result struct {
	Spec      *bench.Spec
	Technique string
	Outcome   repair.Outcome
	// REP is 1 when the candidate is equisatisfiable with the ground truth
	// per the analyzer (independent of the tool's own claim).
	REP int
	// TM and SM compare the candidate (or the unmodified faulty spec when
	// the tool produced nothing) to the ground truth.
	TM  float64
	SM  float64
	Err error
	// Abandoned reports that the job did not complete: its caller's context
	// was done when the technique returned, or the technique reported
	// context.Canceled. RunJob sets it; an abandoned result is never
	// journaled, posted or finalized, so resume re-runs the job. A per-job
	// timeout is a completed (errored) job, not an abandoned one.
	Abandoned bool
}

// Evaluation holds the full grid of results for one benchmark suite.
type Evaluation struct {
	Suite *bench.Suite
	// Results is keyed by technique name, then spec name.
	Results map[string]map[string]*Result
	// CacheStats snapshots the shared analysis cache when the runner had
	// one (zero value otherwise). Counters are cumulative over the cache's
	// lifetime, so back-to-back evaluations on one cache see growing totals.
	CacheStats anacache.Stats
	// TechStats aggregates each technique's self-reported effort (candidates
	// tried, analyzer calls, test runs, iterations) over the whole suite.
	TechStats map[string]repair.Stats
	// Telemetry is a headline snapshot of the runner's registry taken when
	// the evaluation finished (zero value when the runner had none).
	Telemetry telemetry.Brief
}

// REPCount returns the number of REP=1 specs for a technique, optionally
// restricted to one domain ("" for all).
func (e *Evaluation) REPCount(technique, domain string) int {
	n := 0
	for _, r := range e.Results[technique] {
		if r.REP == 1 && (domain == "" || r.Spec.Domain == domain) {
			n++
		}
	}
	return n
}

// RepairedSet returns the names of specs the technique repaired (REP=1).
func (e *Evaluation) RepairedSet(technique string) map[string]bool {
	out := map[string]bool{}
	for name, r := range e.Results[technique] {
		if r.REP == 1 {
			out[name] = true
		}
	}
	return out
}

// SimilarityVectors returns the per-spec TM and SM vectors of a technique
// in deterministic spec order.
func (e *Evaluation) SimilarityVectors(technique string) (tm, sm []float64) {
	names := make([]string, 0, len(e.Results[technique]))
	for n := range e.Results[technique] {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := e.Results[technique][n]
		tm = append(tm, r.TM)
		sm = append(sm, r.SM)
	}
	return tm, sm
}

// MeanSimilarity returns the mean TM and SM of a technique.
func (e *Evaluation) MeanSimilarity(technique string) (tm, sm float64) {
	tms, sms := e.SimilarityVectors(technique)
	return metrics.Mean(tms), metrics.Mean(sms)
}

// Runner evaluates techniques over benchmark suites in parallel.
type Runner struct {
	// Workers is the parallelism degree (defaults to GOMAXPROCS).
	Workers int
	// Cache, when non-nil, is the analysis cache shared by every worker's
	// scoring analyzer. Pass the same instance to StudyFactoriesWith so the
	// techniques' own candidate validations land in the same store.
	Cache *anacache.Cache
	// Telemetry, when non-nil, receives a span per (technique, spec) job
	// plus solver, analyzer, and technique-level live metrics. Each worker
	// gets its own collector so job-effort attribution is exact. Nil
	// disables instrumentation entirely; results are identical either way.
	Telemetry *telemetry.Registry
	// Progress, when non-nil, receives one call per completed (technique,
	// spec) pair, along with point-in-time snapshots of the shared analysis
	// cache and the telemetry registry (zero values when absent).
	Progress func(technique, spec string, done, total int, cache anacache.Stats, tel telemetry.Brief)
	// Timeout, when positive, bounds each (technique, spec) job's wall
	// clock. A job that exceeds it yields a Result with Err set (a
	// deterministic context.DeadlineExceeded) and the run continues — one
	// pathological candidate cannot wedge the study. Note that which point a
	// search had reached when the deadline fired is wall-clock dependent, so
	// runs with a Timeout are only byte-identical when no job actually
	// times out.
	Timeout time.Duration
	// Checkpoint, when non-nil, journals each completed job and serves
	// already-journaled (suite, technique, spec) jobs on later runs without
	// re-running them — the resume path after an interrupt or crash.
	// Abandoned jobs (Result.Abandoned) are never journaled.
	Checkpoint *Checkpoint
}

// cacheStats snapshots the shared cache (zero value when uncached).
func (r *Runner) cacheStats() anacache.Stats {
	if r.Cache == nil {
		return anacache.Stats{}
	}
	return r.Cache.Stats()
}

// Evaluate runs every factory over every spec of the suite.
func (r *Runner) Evaluate(suite *bench.Suite, factories []Factory) (*Evaluation, error) {
	return r.EvaluateContext(context.Background(), suite, factories)
}

// EvaluateContext runs every factory over every spec of the suite, under the
// given context. Cancelling ctx stops dispatching new jobs, cancels in-flight
// ones, and returns the partial evaluation together with ctx's error;
// completed jobs remain journaled in the Checkpoint (when set), so a later
// run with the same Checkpoint resumes where this one stopped.
func (r *Runner) EvaluateContext(ctx context.Context, suite *bench.Suite, factories []Factory) (*Evaluation, error) {
	if err := checkDuplicateSpecs(suite); err != nil {
		return nil, err
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eval := &Evaluation{
		Suite:     suite,
		Results:   map[string]map[string]*Result{},
		TechStats: map[string]repair.Stats{},
	}
	for _, f := range factories {
		eval.Results[f.Name] = map[string]*Result{}
	}

	total := len(factories) * len(suite.Specs)
	done := 0

	record := func(res *Result) {
		eval.Results[res.Technique][res.Spec.Name] = res
		ts := eval.TechStats[res.Technique]
		ts.Add(res.Outcome.Stats)
		eval.TechStats[res.Technique] = ts
		done++
		if r.Progress != nil {
			r.Progress(res.Technique, res.Spec.Name, done, total, r.cacheStats(), r.Telemetry.Brief())
		}
	}

	// Resume pass: serve journaled jobs from the checkpoint without
	// re-running them (and without re-journaling or recording job spans — no
	// new effort was spent). Only the remainder is dispatched.
	var pending []execJob
	resumed := r.Telemetry.Counter(telemetry.CtrJobResumed)
	for _, f := range factories {
		for _, s := range suite.Specs {
			if r.Checkpoint != nil {
				if rec := r.Checkpoint.Lookup(suite.Name, f.Name, s.Name); rec != nil {
					record(rec.materialize(s))
					resumed.Inc()
					continue
				}
			}
			pending = append(pending, execJob{suite: suite.Name, factory: f, spec: s})
		}
	}

	var checkpointErr error
	for er := range r.runPool(ctx, workers, pending) {
		res := er.res
		record(res)
		// Abandoned jobs are not journaled, so resume re-runs them.
		if r.Checkpoint != nil && !res.Abandoned && checkpointErr == nil {
			checkpointErr = r.Checkpoint.Append(RecordOf(suite.Name, res.Spec.Name, res))
		}
	}
	eval.CacheStats = r.cacheStats()
	eval.Telemetry = r.Telemetry.Brief()
	if checkpointErr != nil {
		return eval, fmt.Errorf("writing checkpoint: %w", checkpointErr)
	}
	return eval, ctx.Err()
}

// execJob is one dispatched (suite, technique, spec) evaluation.
type execJob struct {
	suite   string
	factory Factory
	spec    *bench.Spec
}

// execResult pairs a completed result with the suite it belongs to, so
// drains that mix suites (EvaluateJobs) can attribute it.
type execResult struct {
	suite string
	res   *Result
}

// runPool executes the pending jobs on a pool of worker goroutines and
// returns the channel their results drain from. The channel closes when
// every dispatched job has completed; cancelling ctx stops dispatching new
// jobs (in-flight ones still drain). This is the execution core shared by
// EvaluateContext (whole-suite grids) and EvaluateJobs (explicit job lists
// from a sharded-study lease).
func (r *Runner) runPool(ctx context.Context, workers int, pending []execJob) <-chan execResult {
	// The buffer decouples workers from the single-threaded drain loop:
	// without it every worker parks on the drain loop between jobs.
	jobs := make(chan execJob)
	results := make(chan execResult, workers)
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One collector per worker: a worker runs one job at a time, so
			// bracketing each job with BeginJob/TakeJobEffort attributes the
			// solver and cache work of this worker's analyzers and
			// techniques to exactly that job.
			col := telemetry.NewCollector(r.Telemetry)
			an := analyzer.New(analyzer.Options{Cache: r.Cache, Telemetry: col})
			tools := map[string]repair.Technique{}
			for j := range jobs {
				tool, ok := tools[j.factory.Name]
				if !ok {
					tool = j.factory.NewWith(col)
					tools[j.factory.Name] = tool
				}
				// Laned by worker index so traces render one track per
				// runner worker.
				res := RunJob(ctx, col, w+1, r.Timeout, j.factory.Name, j.suite+"/"+j.spec.Name,
					func(ctx context.Context, res *Result) { evaluateOne(ctx, an, tool, j.spec, res) })
				results <- execResult{suite: j.suite, res: res}
			}
		}(w)
	}

	go func() {
	dispatch:
		for _, j := range pending {
			select {
			case jobs <- j:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	return results
}

// JobRef names one (suite, technique, spec) job by its coordinates in a
// study — the unit a sharded study's coordinator leases to worker
// processes.
type JobRef struct {
	Suite     string `json:"suite"`
	Technique string `json:"technique"`
	Spec      string `json:"spec"`
}

// EvaluateJobs runs an explicit list of jobs, possibly spanning several
// suites, and streams each completed result to emit (called from the drain
// goroutine, in completion order). This is the execution path of a sharded
// study's worker process: the leased range is resolved against the locally
// generated suites and evaluated on the same worker-pool machinery as a
// whole-suite run, so per-job behavior — and therefore every journaled
// record — is identical to the single-process study's. The Checkpoint and
// Progress fields are ignored here; journaling is the coordinator's job.
func (r *Runner) EvaluateJobs(ctx context.Context, suites []*bench.Suite, factories []Factory, refs []JobRef, emit func(suite string, res *Result)) error {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bySuite := map[string]map[string]*bench.Spec{}
	for _, s := range suites {
		if err := checkDuplicateSpecs(s); err != nil {
			return err
		}
		specs := map[string]*bench.Spec{}
		for _, sp := range s.Specs {
			specs[sp.Name] = sp
		}
		bySuite[s.Name] = specs
	}
	byName := map[string]Factory{}
	for _, f := range factories {
		byName[f.Name] = f
	}
	pending := make([]execJob, 0, len(refs))
	for _, ref := range refs {
		specs, ok := bySuite[ref.Suite]
		if !ok {
			return fmt.Errorf("job references unknown suite %q", ref.Suite)
		}
		spec, ok := specs[ref.Spec]
		if !ok {
			return fmt.Errorf("job references unknown spec %s/%s", ref.Suite, ref.Spec)
		}
		f, ok := byName[ref.Technique]
		if !ok {
			return fmt.Errorf("job references unknown technique %q", ref.Technique)
		}
		pending = append(pending, execJob{suite: ref.Suite, factory: f, spec: spec})
	}
	for er := range r.runPool(ctx, workers, pending) {
		emit(er.suite, er.res)
	}
	return ctx.Err()
}

// checkDuplicateSpecs rejects suites with repeated spec names: results are
// keyed by name, so a duplicate would silently overwrite its sibling's
// result and corrupt REP counts and hybrid unions.
func checkDuplicateSpecs(suite *bench.Suite) error {
	seen := make(map[string]bool, len(suite.Specs))
	for _, s := range suite.Specs {
		if seen[s.Name] {
			return fmt.Errorf("suite %s: duplicate spec name %q", suite.Name, s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// evaluateOne runs one technique on one spec and scores the outcome into
// res. It runs under RunJob, which recovers a panic in the technique (or
// scoring) into a *PanicError on res, isolating the failure to this job.
func evaluateOne(ctx context.Context, an *analyzer.Analyzer, tool repair.Technique, spec *bench.Spec, res *Result) {
	res.Spec = spec
	an = an.WithContext(ctx)
	out, err := tool.Repair(ctx, spec.Problem())
	res.Outcome = out
	if err != nil {
		res.Err = err
	}
	candidate := out.Candidate
	gtSrc := printer.Module(spec.GroundTruth)
	candSrc := printer.Module(spec.Faulty)
	if candidate != nil {
		candSrc = printer.Module(candidate)
		rep, repErr := metrics.REP(an, spec.GroundTruth, candidate)
		if repErr == nil {
			res.REP = rep
		} else {
			// Keep both failures visible: a repair error does not excuse a
			// metric error (this used to silently drop the latter).
			res.Err = errors.Join(res.Err, fmt.Errorf("REP metric: %w", repErr))
		}
	}
	res.TM = metrics.TokenMatch(gtSrc, candSrc)
	res.SM = metrics.SyntaxMatch(gtSrc, candSrc)
}

// Hybrid describes one traditional+LLM pairing of RQ3.
type Hybrid struct {
	Traditional string
	LLM         string
	// TraditionalRepairs and LLMRepairs are the individual REP counts.
	TraditionalRepairs int
	LLMRepairs         int
	// Overlap counts specs repaired by both; Union counts specs repaired
	// by at least one (the hybrid's capability).
	Overlap int
	Union   int
}

// Hybrids computes all pairings of traditional and LLM techniques over the
// union of the given evaluations (one per benchmark suite).
func Hybrids(evals ...*Evaluation) []Hybrid {
	repaired := func(tech string) map[string]bool {
		out := map[string]bool{}
		for _, e := range evals {
			for name := range e.RepairedSet(tech) {
				out[e.Suite.Name+"/"+name] = true
			}
		}
		return out
	}
	var out []Hybrid
	for _, trad := range TraditionalNames {
		tset := repaired(trad)
		for _, llmName := range LLMNames {
			lset := repaired(llmName)
			h := Hybrid{
				Traditional:        trad,
				LLM:                llmName,
				TraditionalRepairs: len(tset),
				LLMRepairs:         len(lset),
			}
			for name := range tset {
				if lset[name] {
					h.Overlap++
				}
			}
			h.Union = len(tset) + len(lset) - h.Overlap
			out = append(out, h)
		}
	}
	return out
}

// TotalSpecs sums the suite sizes of the evaluations.
func TotalSpecs(evals ...*Evaluation) int {
	n := 0
	for _, e := range evals {
		n += len(e.Suite.Specs)
	}
	return n
}

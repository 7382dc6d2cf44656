package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/anacache"
	"specrepair/internal/analyzer"
	"specrepair/internal/bench"
	"specrepair/internal/bounds"
	"specrepair/internal/core"
	"specrepair/internal/llm"
	"specrepair/internal/metrics"
	"specrepair/internal/mutation"
	"specrepair/internal/telemetry"
	"specrepair/internal/translate"
)

// spanKinds are the span kinds the program emits; each is reported as
// span.<kind>.self_ms.
var spanKinds = []string{
	"job", "llm.complete", "arepair.iteration", "icebar.iteration",
	"atr.enumerate", "atr.localize", "beafix.depth", "multiround.round",
	"singleround.round", "candidate.eval", "analyzer.execute_all",
	"analyzer.passes_all", "analyzer.equisat", "analyzer.cmd", "sat.solve",
}

// spanSink keeps every finished span of one registry in memory.
type spanSink struct {
	mu   sync.Mutex
	recs []telemetry.SpanRecord
}

func (s *spanSink) Record(rec telemetry.SpanRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

// selfTimes returns each span kind's total self time in nanoseconds: a
// span's duration minus the durations of its children.
func (s *spanSink) selfTimes() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := func(trace, span string) string { return trace + "/" + span }
	children := map[string]int64{}
	for _, r := range s.recs {
		if r.ParentID != "" {
			children[key(r.TraceID, r.ParentID)] += r.DurationNs
		}
	}
	out := map[string]int64{}
	for _, r := range s.recs {
		self := r.DurationNs
		if r.SpanID != "" {
			self -= children[key(r.TraceID, r.SpanID)]
		}
		if self > 0 {
			out[r.Name] += self
		}
	}
	return out
}

// setSpanMetrics reports span self times summed over the given sinks.
func setSpanMetrics(r *report, sinks ...*spanSink) {
	total := map[string]int64{}
	n := 0
	for _, s := range sinks {
		for k, v := range s.selfTimes() {
			total[k] += v
		}
		n += len(s.recs)
	}
	for _, k := range spanKinds {
		r.set("span."+k+".self_ms", "ms", float64(total[k])/1e6, n)
	}
}

// metricName spells a technique name with only the characters metric names
// allow ("Single-Round_Loc+Fix" becomes "Single-Round_Loc_Fix").
func metricName(tech string) string { return strings.ReplaceAll(tech, "+", "_") }

// counterNames maps [C] metric names to the program's counters.
var counterNames = map[string]string{
	"sat.solves":            telemetry.CtrSolves,
	"sat.conflicts":         telemetry.CtrConflicts,
	"sat.propagations":      telemetry.CtrPropagations,
	"sat.budget_exhausted":  telemetry.CtrBudgetExhausted,
	"analyzer.cache_hits":   telemetry.CtrAnalyzerHits,
	"analyzer.cache_misses": telemetry.CtrAnalyzerMisses,
	"incremental.queries":   telemetry.CtrIncQueries,
	"incremental.fallbacks": telemetry.CtrIncFallbacks,
	"shard.leases":          telemetry.CtrShardLeases,
	"shard.steals":          telemetry.CtrShardSteals,
	"shard.expired":         telemetry.CtrShardExpired,
	"shard.duplicates":      telemetry.CtrShardDuplicates,
	"service.rejected":      telemetry.CtrServiceRejected,
}

// histogramSums maps [C] metric names to histograms whose sums they read.
var histogramSums = map[string]string{
	"translate.clauses":     telemetry.HistClauses,
	"translate.solver_vars": telemetry.HistSolverVars,
}

// counts reads the program's own counters, histogram sums, per-technique
// effort and cache statistics, summed over registries (a sharded study
// keeps one per process role).
func counts(cache anacache.Stats, regs ...*telemetry.Registry) map[string]int64 {
	out := map[string]int64{
		"anacache.entries":   cache.Entries,
		"anacache.evictions": cache.Evictions,
	}
	for _, reg := range regs {
		for name, ctr := range counterNames {
			out[name] += reg.CounterValue(ctr)
		}
		for name, hist := range histogramSums {
			if h, ok := reg.HistogramSnapshot(hist); ok {
				out[name] += h.Sum
			}
		}
		for _, ts := range reg.Techniques() {
			out["repair.candidates"] += ts.Candidates
			out["repair.analyzer_calls"] += ts.AnalyzerCalls
			out["aunit.test_runs"] += ts.TestRuns
		}
	}
	return out
}

// counterMetrics reports the [C] metrics: the counts above, solver time,
// cache and fallback ratios, and mean job seconds per technique.
func counterMetrics(r *report, cache anacache.Stats, regs ...*telemetry.Registry) {
	c := counts(cache, regs...)
	for name, v := range c {
		r.set(name, "count", float64(v), 1)
	}
	var solveNs, solves, jobs int64
	techNs, techJobs := map[string]int64{}, map[string]int64{}
	for _, reg := range regs {
		if h, ok := reg.HistogramSnapshot(telemetry.HistSolveNs); ok {
			solveNs += h.Sum
			solves += h.Count
		}
		for _, ts := range reg.Techniques() {
			techNs[ts.Technique] += ts.Duration.Sum
			techJobs[ts.Technique] += ts.Jobs
			jobs += ts.Jobs
		}
	}
	r.set("sat.solve_ms_sum", "ms", float64(solveNs)/1e6, int(solves))
	frac := 0.0
	if q := c["incremental.queries"]; q > 0 {
		frac = float64(c["incremental.fallbacks"]) / float64(q)
	}
	r.set("incremental.fallback_frac", "fraction", frac, int(c["incremental.queries"]))
	r.set("anacache.hit_rate", "fraction", cache.HitRate(), int(cache.Lookups()))
	for _, tech := range core.TechniqueNames {
		mean := 0.0
		if n := techJobs[tech]; n > 0 {
			mean = float64(techNs[tech]) / float64(n) / 1e9
		}
		r.set("repair."+metricName(tech)+".job_s", "s", mean, int(techJobs[tech]))
	}
	for _, name := range []string{"repair.candidates", "repair.analyzer_calls", "aunit.test_runs"} {
		r.set(name, "count", float64(c[name]), int(jobs))
	}
}

// jobNs sums the wall clock of every (technique, spec) job the registries
// recorded.
func jobNs(regs ...*telemetry.Registry) int64 {
	var t int64
	for _, reg := range regs {
		if h, ok := reg.HistogramSnapshot(telemetry.HistJobDurationNs); ok {
			t += h.Sum
		}
	}
	return t
}

// memDelta measures allocation and GC cycles across fn.
func memDelta(r *report, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	r.set("go.alloc_mb", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), 1)
	r.set("go.gc_cycles", "count", float64(after.NumGC-before.NumGC), 1)
	return err
}

// profileInto runs fn under the CPU profiler and reports each layer's share.
func profileInto(r *report, fn func() error) error {
	shares, samples, err := cpuShares(fn)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		r.set("cpu."+l+"_pct", "%", shares[l], int(samples))
	}
	return nil
}

// replayMax caps how many of the workload's specs each replay visits.
const replayMax = 48

// replay times fn over every input, one call at a time, and reports under
// name the median time per call (in ms when name ends in _ms, else in us)
// and, when kb is non-empty, the mean kilobytes allocated per call.
func replay[T any](r *report, name, kb string, inputs []T, fn func(T) error) error {
	unit, perNs := "us", 1e-3
	if strings.HasSuffix(name, "_ms") {
		unit, perNs = "ms", 1e-6
	}
	var times []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, in := range inputs {
		start := time.Now()
		if err := fn(in); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		times = append(times, float64(time.Since(start).Nanoseconds())*perNs)
	}
	runtime.ReadMemStats(&after)
	r.set(name, unit, median(times), len(times))
	if kb != "" && len(inputs) > 0 {
		r.set(kb, "KB", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(inputs)), len(inputs))
	}
	return nil
}

// lowered is a spec's faulty module after types.Lower.
type lowered struct {
	low  *ast.Module
	info *types.Info
}

// replayLayers times the workload's own specs through each layer's public
// functions.
func replayLayers(r *report, seed int64, specs []*bench.Spec) error {
	if len(specs) > replayMax {
		specs = specs[:replayMax]
	}
	var lows []lowered
	var texts []string
	for _, sp := range specs {
		low, info, err := types.Lower(sp.Faulty)
		if err != nil {
			return fmt.Errorf("lowering %s: %w", sp.Name, err)
		}
		lows = append(lows, lowered{low, info})
		texts = append(texts, printer.Module(sp.Faulty))
	}
	steps := []func() error{
		func() error {
			return replay(r, "parser.parse_us", "", texts, func(src string) error {
				_, err := parser.Parse(src)
				return err
			})
		},
		func() error {
			return replay(r, "printer.print_us", "", specs, func(sp *bench.Spec) error {
				printer.Module(sp.Faulty)
				return nil
			})
		},
		func() error {
			return replay(r, "types.lower_us", "types.lower_kb", specs, func(sp *bench.Spec) error {
				_, _, err := types.Lower(sp.Faulty)
				return err
			})
		},
		func() error {
			return replay(r, "types.check_us", "", lows, func(l lowered) error {
				_, err := types.Check(l.low)
				return err
			})
		},
		func() error {
			return replay(r, "ast.clone_us", "ast.clone_kb", specs, func(sp *bench.Spec) error {
				sp.Faulty.Clone()
				return nil
			})
		},
		func() error { return replayMutation(r, specs) },
		func() error { return replayAUnit(r, specs) },
		func() error { return replayTranslate(r, lows) },
		func() error {
			return replay(r, "analyzer.execute_all_ms", "", specs, func(sp *bench.Spec) error {
				_, err := analyzer.New(analyzer.Options{}).ExecuteAll(sp.Faulty)
				return err
			})
		},
		func() error {
			return replay(r, "metrics.rep_ms", "", specs, func(sp *bench.Spec) error {
				_, err := metrics.REP(analyzer.New(analyzer.Options{}), sp.GroundTruth, sp.Faulty)
				return err
			})
		},
		func() error {
			gts := make([]string, len(specs))
			for i, sp := range specs {
				gts[i] = printer.Module(sp.GroundTruth)
			}
			idx := make([]int, len(specs))
			for i := range idx {
				idx[i] = i
			}
			if err := replay(r, "metrics.tm_us", "", idx, func(i int) error {
				metrics.TokenMatch(gts[i], texts[i])
				return nil
			}); err != nil {
				return err
			}
			return replay(r, "metrics.sm_us", "", idx, func(i int) error {
				metrics.SyntaxMatch(gts[i], texts[i])
				return nil
			})
		},
		func() error {
			model := llm.NewSimulatedModel(seed)
			return replay(r, "llm.complete_ms", "", texts, func(src string) error {
				prompt := llm.BuildRepairPrompt(src, llm.PromptOptions{})
				_, err := model.Complete([]llm.Message{{Role: llm.RoleUser, Content: prompt}})
				return err
			})
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// replayMutation applies the first candidate edit at up to four formula
// sites of each spec.
func replayMutation(r *report, specs []*bench.Spec) error {
	type edit struct {
		eng  *mutation.Engine
		site mutation.Site
		repl ast.Expr
	}
	var edits []edit
	for _, sp := range specs {
		eng, err := mutation.NewEngine(sp.Faulty)
		if err != nil {
			return fmt.Errorf("mutation engine for %s: %w", sp.Name, err)
		}
		sites := eng.FormulaSites()
		for i := 0; i < len(sites) && i < 4; i++ {
			if cands := eng.Candidates(sites[i], mutation.BudgetOperators); len(cands) > 0 {
				edits = append(edits, edit{eng, sites[i].Site, cands[0]})
			}
		}
	}
	return replay(r, "mutation.apply_us", "mutation.apply_kb", edits, func(e edit) error {
		_, err := e.eng.Apply(e.site, e.repl)
		return err
	})
}

// replayAUnit runs every AUnit test of each spec against its faulty module.
func replayAUnit(r *report, specs []*bench.Spec) error {
	type run struct {
		spec *bench.Spec
		i    int
	}
	var runs []run
	for _, sp := range specs {
		if sp.Tests == nil {
			continue
		}
		for i := range sp.Tests.Tests {
			runs = append(runs, run{sp, i})
		}
	}
	return replay(r, "aunit.test_us", "", runs, func(x run) error {
		x.spec.Tests.Tests[x.i].Run(x.spec.Faulty)
		return nil
	})
}

// replayTranslate bounds and translates every command of each lowered spec
// the way the analyzer prepares a solver: bounds.Build, translate.New, the
// implicit constraints, the facts and the command's goal.
func replayTranslate(r *report, lows []lowered) error {
	type cmd struct {
		low  *ast.Module
		info *types.Info
		cmd  *ast.Command
	}
	var cmds []cmd
	for _, l := range lows {
		for _, c := range l.low.Commands {
			cmds = append(cmds, cmd{l.low, l.info, c})
		}
	}
	return replay(r, "translate.cmd_us", "", cmds, func(c cmd) error {
		b, err := bounds.Build(c.info, c.cmd.Scope)
		if err != nil {
			return err
		}
		tr := translate.New(c.info, b)
		if _, err := tr.ImplicitConstraints(); err != nil {
			return err
		}
		for _, f := range c.low.Facts {
			if _, err := tr.Formula(f.Body, nil); err != nil {
				return err
			}
		}
		goal, err := commandGoal(c.low, c.cmd)
		if err != nil {
			return err
		}
		_, err = tr.Formula(goal, nil)
		return err
	})
}

// commandGoal resolves the formula a command analyzes. It is a copy of the
// analyzer's unexported commandGoal (internal/analyzer/analyzer.go) and must
// stay in step with it; like it, it fails on a missing target, so a drift
// shows as a replay error rather than as a shorter time.
func commandGoal(low *ast.Module, c *ast.Command) (ast.Expr, error) {
	if c.Block != nil {
		return c.Block, nil
	}
	switch c.Kind {
	case ast.CmdRun:
		p := low.LookupPred(c.Target)
		if p == nil {
			return nil, fmt.Errorf("run target %q not found", c.Target)
		}
		if len(p.Params) == 0 {
			return p.Body, nil
		}
		decls := make([]*ast.Decl, len(p.Params))
		for i, d := range p.Params {
			decls[i] = d.Clone()
		}
		return &ast.Quantified{Quant: ast.QuantSome, Decls: decls, Body: p.Body.CloneExpr(), QuantPos: p.Pos()}, nil
	case ast.CmdCheck:
		as := low.LookupAssert(c.Target)
		if as == nil {
			return nil, fmt.Errorf("check target %q not found", c.Target)
		}
		return as.Body, nil
	default:
		return nil, fmt.Errorf("unknown command kind")
	}
}

// overheadPairs runs pairs of untraced and traced passes of a reduced unit,
// alternating which goes first, and reports the tracing overhead from the
// two medians beside the untraced passes' spread.
func overheadPairs(r *report, unit func(traced bool) error) error {
	var plain, traced []float64
	for i := 0; i < overheadPairCount; i++ {
		order := []bool{false, true}
		if i%2 == 1 {
			order = []bool{true, false}
		}
		for _, tr := range order {
			start := time.Now()
			if err := unit(tr); err != nil {
				return err
			}
			wall := time.Since(start).Seconds()
			if tr {
				traced = append(traced, wall)
			} else {
				plain = append(plain, wall)
			}
		}
	}
	mp := median(plain)
	q1, q3 := quartiles(plain)
	r.set("telemetry.trace_overhead_pct", "%", 100*(median(traced)/mp-1), overheadPairCount)
	r.set("telemetry.untraced_iqr_pct", "%", 100*(q3-q1)/mp, overheadPairCount)
	return nil
}

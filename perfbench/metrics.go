package main

import (
	"fmt"
	"os"

	"specrepair/internal/core"
)

// metricSpec names one reported metric as BENCHMARK.json lists it.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run reports, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"specs_per_min", "specs/min", "higher"},
	{"verdicts_per_s", "1/s", "higher"},
	{"slo_frac", "fraction", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics every traced run reports, on every workload; a
// layer a workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	lower := func(name, unit string) metricSpec { return metricSpec{name, unit, "lower"} }
	higher := func(name, unit string) metricSpec { return metricSpec{name, unit, "higher"} }
	out := []metricSpec{
		lower("workload.latency_p50_ms", "ms"),
		lower("workload.latency_p95_ms", "ms"),
		lower("parser.parse_us", "us"),
		lower("printer.print_us", "us"),
		lower("types.lower_us", "us"),
		lower("types.lower_kb", "KB"),
		lower("types.check_us", "us"),
		lower("ast.clone_us", "us"),
		lower("ast.clone_kb", "KB"),
		lower("mutation.apply_us", "us"),
		lower("mutation.apply_kb", "KB"),
		lower("aunit.test_us", "us"),
		lower("aunit.test_runs", "count"),
		lower("translate.cmd_us", "us"),
		lower("translate.clauses", "count"),
		lower("translate.solver_vars", "count"),
		lower("sat.solves", "count"),
		lower("sat.conflicts", "count"),
		lower("sat.propagations", "count"),
		lower("sat.budget_exhausted", "count"),
		lower("sat.solve_ms_sum", "ms"),
		higher("analyzer.cache_hits", "count"),
		lower("analyzer.cache_misses", "count"),
		higher("incremental.queries", "count"),
		lower("incremental.fallbacks", "count"),
		lower("incremental.fallback_frac", "fraction"),
		lower("analyzer.execute_all_ms", "ms"),
		higher("anacache.hit_rate", "fraction"),
		lower("anacache.entries", "count"),
		lower("anacache.evictions", "count"),
		lower("metrics.rep_ms", "ms"),
		lower("metrics.tm_us", "us"),
		lower("metrics.sm_us", "us"),
		lower("llm.complete_ms", "ms"),
	}
	for _, tech := range core.TechniqueNames {
		out = append(out, lower("repair."+metricName(tech)+".job_s", "s"))
	}
	out = append(out,
		lower("repair.candidates", "count"),
		lower("repair.analyzer_calls", "count"),
		higher("core.busy_frac", "fraction"),
		lower("service.queue_wait_ms_p50", "ms"),
		lower("service.queue_wait_ms_p95", "ms"),
		lower("service.run_ms_p50", "ms"),
		lower("service.run_ms_p95", "ms"),
		lower("service.submit_ms_p50", "ms"),
		higher("service.dedup_frac", "fraction"),
		lower("service.rejected", "count"),
		lower("loadgen.lag_ms_max", "ms"),
		lower("shard.leases", "count"),
		lower("shard.steals", "count"),
		lower("shard.expired", "count"),
		lower("shard.duplicates", "count"),
		lower("telemetry.trace_overhead_pct", "%"),
		lower("telemetry.untraced_iqr_pct", "%"),
		lower("go.alloc_mb", "MB"),
		lower("go.gc_cycles", "count"),
	)
	for _, k := range spanKinds {
		out = append(out, lower("span."+k+".self_ms", "ms"))
	}
	for _, l := range cpuLayers {
		out = append(out, lower("cpu."+l+"_pct", "%"))
	}
	return out
}

// latencyMetrics reports the workload's own latency distribution: per spec
// through all twelve techniques (study, shard), per ExecuteAll call
// (verify), or per submission from scheduled send to done (serve).
func latencyMetrics(r *report, ms []float64) {
	r.set("workload.latency_p50_ms", "ms", percentile(ms, 50), len(ms))
	r.set("workload.latency_p95_ms", "ms", percentile(ms, 95), len(ms))
}

// conform makes the report carry exactly the listed metrics: a metric the
// workload did not produce reads 0, and one not listed is dropped.
func conform(r *report, specs []metricSpec) {
	listed := map[string]bool{}
	for _, m := range specs {
		listed[m.name] = true
		got, ok := r.metrics[m.name]
		if !ok {
			r.metrics[m.name] = metric{unit: m.unit}
			continue
		}
		if got.unit != m.unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured in %s, listed in %s\n", m.name, got.unit, m.unit)
		}
		got.unit = m.unit
		r.metrics[m.name] = got
	}
	for name := range r.metrics {
		if !listed[name] {
			delete(r.metrics, name)
		}
	}
}

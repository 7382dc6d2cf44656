package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"specrepair/internal/anacache"
	"specrepair/internal/bench"
	"specrepair/internal/repair"
	"specrepair/internal/telemetry"
)

func TestStudyFactoriesCoverAllNames(t *testing.T) {
	fs := StudyFactories(1)
	if len(fs) != len(TechniqueNames) {
		t.Fatalf("factories = %d, names = %d", len(fs), len(TechniqueNames))
	}
	for i, f := range fs {
		if f.Name != TechniqueNames[i] {
			t.Errorf("factory %d = %q, want %q", i, f.Name, TechniqueNames[i])
		}
		tool := f.New()
		if tool.Name() != f.Name {
			t.Errorf("tool name %q != factory name %q", tool.Name(), f.Name)
		}
	}
	if len(TraditionalNames) != 4 || len(LLMNames) != 8 {
		t.Errorf("partition broken: %d traditional, %d LLM", len(TraditionalNames), len(LLMNames))
	}
}

func TestFactoryByName(t *testing.T) {
	if _, err := FactoryByName(1, "ATR"); err != nil {
		t.Error(err)
	}
	if _, err := FactoryByName(1, "NoSuchTool"); err == nil {
		t.Error("expected error for unknown name")
	}
}

func miniSuite(t *testing.T) *bench.Suite {
	t.Helper()
	g := bench.NewGenerator(nil)
	g.Scale = 400
	suite, err := g.ARepair()
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

func TestRunnerEvaluate(t *testing.T) {
	suite := miniSuite(t)
	runner := &Runner{Workers: 2}
	// Two cheap techniques keep the test fast.
	var factories []Factory
	for _, f := range StudyFactories(1) {
		if f.Name == "BeAFix" || f.Name == "Single-Round_None" {
			factories = append(factories, f)
		}
	}
	eval, err := runner.Evaluate(suite, factories)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range factories {
		results := eval.Results[f.Name]
		if len(results) != len(suite.Specs) {
			t.Errorf("%s: %d results, want %d", f.Name, len(results), len(suite.Specs))
		}
		for name, r := range results {
			if r.Spec == nil || r.Technique != f.Name {
				t.Errorf("%s/%s: malformed result", f.Name, name)
			}
			if r.TM < 0 || r.TM > 1 || r.SM < 0 || r.SM > 1 {
				t.Errorf("%s/%s: similarity out of range: %+v", f.Name, name, r)
			}
			if r.REP == 1 && r.Outcome.Candidate == nil {
				t.Errorf("%s/%s: REP=1 without a candidate", f.Name, name)
			}
		}
	}
	// REPCount consistency with RepairedSet.
	for _, f := range factories {
		if eval.REPCount(f.Name, "") != len(eval.RepairedSet(f.Name)) {
			t.Errorf("%s: REPCount disagrees with RepairedSet", f.Name)
		}
	}
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	suite := miniSuite(t)
	var factory []Factory
	for _, f := range StudyFactories(7) {
		if f.Name == "Single-Round_Loc" {
			factory = append(factory, f)
		}
	}
	r1 := &Runner{Workers: 1}
	r2 := &Runner{Workers: 4}
	e1, err := r1.Evaluate(suite, factory)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r2.Evaluate(suite, factory)
	if err != nil {
		t.Fatal(err)
	}
	for name, res1 := range e1.Results["Single-Round_Loc"] {
		res2 := e2.Results["Single-Round_Loc"][name]
		if res2 == nil || res1.REP != res2.REP || res1.TM != res2.TM {
			t.Errorf("%s: results differ across worker counts", name)
		}
	}
}

func TestHybridsArithmetic(t *testing.T) {
	mk := func(name string, repaired map[string]int) map[string]*Result {
		out := map[string]*Result{}
		for spec, rep := range repaired {
			out[spec] = &Result{Technique: name, REP: rep, Spec: &bench.Spec{Name: spec}}
		}
		return out
	}
	eval := &Evaluation{
		Suite: &bench.Suite{Name: "T"},
		Results: map[string]map[string]*Result{
			"ARepair":          mk("ARepair", map[string]int{"a": 1, "b": 1, "c": 0}),
			"ICEBAR":           mk("ICEBAR", map[string]int{"a": 0, "b": 0, "c": 0}),
			"BeAFix":           mk("BeAFix", map[string]int{"a": 0, "b": 0, "c": 0}),
			"ATR":              mk("ATR", map[string]int{"a": 0, "b": 0, "c": 0}),
			"Multi-Round_None": mk("Multi-Round_None", map[string]int{"a": 1, "b": 0, "c": 1}),
		},
	}
	for _, n := range LLMNames {
		if eval.Results[n] == nil {
			eval.Results[n] = map[string]*Result{}
		}
	}
	hybrids := Hybrids(eval)
	if len(hybrids) != 32 {
		t.Fatalf("hybrids = %d", len(hybrids))
	}
	for _, h := range hybrids {
		if h.Traditional == "ARepair" && h.LLM == "Multi-Round_None" {
			if h.TraditionalRepairs != 2 || h.LLMRepairs != 2 || h.Overlap != 1 || h.Union != 3 {
				t.Errorf("hybrid arithmetic wrong: %+v", h)
			}
		}
	}
}

// mkEval fabricates an evaluation with the given per-technique repaired sets.
func mkEval(suite string, repaired map[string][]string) *Evaluation {
	eval := &Evaluation{
		Suite:   &bench.Suite{Name: suite},
		Results: map[string]map[string]*Result{},
	}
	for _, tech := range TechniqueNames {
		eval.Results[tech] = map[string]*Result{}
		for _, spec := range repaired[tech] {
			eval.Results[tech][spec] = &Result{Technique: tech, REP: 1, Spec: &bench.Spec{Name: spec}}
		}
	}
	return eval
}

// TestHybridsInvariants checks the structural properties every pairing must
// satisfy regardless of the underlying results.
func TestHybridsInvariants(t *testing.T) {
	evalA := mkEval("A", map[string][]string{
		"ARepair":          {"x", "y"},
		"ATR":              {"y"},
		"Multi-Round_None": {"x", "z"},
		"Single-Round_Loc": {"z"},
	})
	evalB := mkEval("B", map[string][]string{
		"ARepair":          {"x"},
		"Multi-Round_None": {"q"},
	})
	hybrids := Hybrids(evalA, evalB)
	if len(hybrids) != len(TraditionalNames)*len(LLMNames) {
		t.Fatalf("hybrids = %d, want %d", len(hybrids), len(TraditionalNames)*len(LLMNames))
	}
	seen := map[string]bool{}
	for _, h := range hybrids {
		if h.Union != h.TraditionalRepairs+h.LLMRepairs-h.Overlap {
			t.Errorf("%s+%s: union %d != %d + %d - %d",
				h.Traditional, h.LLM, h.Union, h.TraditionalRepairs, h.LLMRepairs, h.Overlap)
		}
		if h.Overlap > h.TraditionalRepairs || h.Overlap > h.LLMRepairs {
			t.Errorf("%s+%s: overlap %d exceeds an individual count", h.Traditional, h.LLM, h.Overlap)
		}
		if seen[h.Traditional+"+"+h.LLM] {
			t.Errorf("duplicate pairing %s+%s", h.Traditional, h.LLM)
		}
		seen[h.Traditional+"+"+h.LLM] = true
	}
}

// TestHybridsCrossSuitePrefixing pins the suite-qualified counting: the same
// spec name in two suites is two distinct specs, not one.
func TestHybridsCrossSuitePrefixing(t *testing.T) {
	evalA := mkEval("A", map[string][]string{
		"ARepair":          {"x"},
		"Multi-Round_None": {"x"},
	})
	evalB := mkEval("B", map[string][]string{
		"ARepair": {"x"},
	})
	for _, h := range Hybrids(evalA, evalB) {
		if h.Traditional != "ARepair" || h.LLM != "Multi-Round_None" {
			continue
		}
		// A/x and B/x are distinct; only A/x overlaps with the LLM's repair.
		if h.TraditionalRepairs != 2 || h.LLMRepairs != 1 || h.Overlap != 1 || h.Union != 2 {
			t.Errorf("cross-suite counting broken: %+v", h)
		}
	}
}

// TestHybridsEmptyEvaluations: no evaluations still yields the full pairing
// grid, all zeroed — downstream tables index into it unconditionally.
func TestHybridsEmptyEvaluations(t *testing.T) {
	hybrids := Hybrids()
	if len(hybrids) != len(TraditionalNames)*len(LLMNames) {
		t.Fatalf("hybrids = %d, want %d", len(hybrids), len(TraditionalNames)*len(LLMNames))
	}
	for _, h := range hybrids {
		if h.TraditionalRepairs != 0 || h.LLMRepairs != 0 || h.Overlap != 0 || h.Union != 0 {
			t.Errorf("empty study produced nonzero hybrid: %+v", h)
		}
	}
}

func TestEvaluateOneMalformedTool(t *testing.T) {
	// A technique erroring must produce a scored result, not poison the run.
	suite := miniSuite(t)
	factories := []Factory{{
		Name:    "broken",
		NewWith: func(*telemetry.Collector) repair.Technique { return brokenTool{} },
	}}
	runner := &Runner{Workers: 1}
	eval, err := runner.Evaluate(suite, factories)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range eval.Results["broken"] {
		if r.Err == nil {
			t.Error("expected recorded error")
		}
		if r.REP != 0 {
			t.Error("broken tool cannot repair")
		}
	}
}

type brokenTool struct{}

func (brokenTool) Name() string { return "broken" }
func (brokenTool) Repair(context.Context, repair.Problem) (repair.Outcome, error) {
	return repair.Outcome{}, errTest
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "intentional test failure" }

func TestMeanSimilarityIdenticalCandidate(t *testing.T) {
	suite := miniSuite(t)
	spec := suite.Specs[0]
	eval := &Evaluation{
		Suite: suite,
		Results: map[string]map[string]*Result{
			"x": {spec.Name: &Result{Spec: spec, Technique: "x", TM: 1, SM: 1}},
		},
	}
	tm, sm := eval.MeanSimilarity("x")
	if tm != 1 || sm != 1 {
		t.Errorf("mean similarity = %f, %f", tm, sm)
	}
}

// recordingSink collects spans in memory for assertions.
type recordingSink struct {
	mu    sync.Mutex
	spans []telemetry.SpanRecord
}

func (s *recordingSink) Record(sr telemetry.SpanRecord) {
	s.mu.Lock()
	s.spans = append(s.spans, sr)
	s.mu.Unlock()
}

func TestRunnerTelemetry(t *testing.T) {
	suite := miniSuite(t)
	reg := telemetry.New()
	sink := &recordingSink{}
	reg.SetSink(sink)
	var factories []Factory
	for _, f := range StudyFactories(1) {
		if f.Name == "BeAFix" || f.Name == "ARepair" {
			factories = append(factories, f)
		}
	}
	runner := &Runner{Workers: 2, Telemetry: reg}
	progressed := false
	runner.Progress = func(tech, spec string, done, total int, cs anacache.Stats, tel telemetry.Brief) {
		if tel.Jobs > 0 {
			progressed = true
		}
	}
	eval, err := runner.Evaluate(suite, factories)
	if err != nil {
		t.Fatal(err)
	}

	total := int64(len(factories) * len(suite.Specs))
	if got := reg.CounterValue(telemetry.CtrJobs); got != total {
		t.Errorf("jobs counter = %d, want %d", got, total)
	}
	if !progressed {
		t.Error("Progress never saw a telemetry brief with jobs > 0")
	}
	if eval.Telemetry.Jobs != total {
		t.Errorf("evaluation brief jobs = %d, want %d", eval.Telemetry.Jobs, total)
	}

	// One job span per job, each with the suite-qualified spec label and a
	// non-zero duration. Without a parent span in the context the jobs are
	// roots whose subtrees are traced too, so only job spans are counted.
	var jobs []telemetry.SpanRecord
	for _, sr := range sink.spans {
		if sr.Name == "job" {
			jobs = append(jobs, sr)
		}
	}
	if int64(len(jobs)) != total {
		t.Fatalf("job spans = %d, want %d", len(jobs), total)
	}
	for _, sr := range jobs {
		tech, spec := sr.Attrs["technique"], sr.Attrs["spec"]
		if tech == "" {
			t.Errorf("malformed span: %+v", sr)
		}
		if !strings.HasPrefix(spec, suite.Name+"/") {
			t.Errorf("span spec %q not suite-qualified", spec)
		}
		if sr.DurationNs <= 0 {
			t.Errorf("span %s/%s has non-positive duration %d", tech, spec, sr.DurationNs)
		}
	}

	// Per-technique aggregates match the evaluation's stats sums.
	techs := map[string]telemetry.TechniqueStat{}
	for _, ts := range reg.Techniques() {
		techs[ts.Technique] = ts
	}
	for _, f := range factories {
		ts, ok := techs[f.Name]
		if !ok {
			t.Errorf("no telemetry aggregate for %s", f.Name)
			continue
		}
		if ts.Jobs != int64(len(suite.Specs)) {
			t.Errorf("%s telemetry jobs = %d, want %d", f.Name, ts.Jobs, len(suite.Specs))
		}
		if ts.Candidates != int64(eval.TechStats[f.Name].CandidatesTried) {
			t.Errorf("%s candidates: telemetry %d vs evaluation %d",
				f.Name, ts.Candidates, eval.TechStats[f.Name].CandidatesTried)
		}
	}

	// BeAFix exercises the solver; its jobs must have attributed effort.
	if techs["BeAFix"].Solves == 0 {
		t.Error("BeAFix jobs recorded no attributed solves")
	}
}

// TestRunnerTelemetryDoesNotChangeResults is the A/B guard: running with a
// registry must not alter any scored result.
func TestRunnerTelemetryDoesNotChangeResults(t *testing.T) {
	suite := miniSuite(t)
	var factories []Factory
	for _, f := range StudyFactories(3) {
		if f.Name == "BeAFix" || f.Name == "Single-Round_None" {
			factories = append(factories, f)
		}
	}
	// One worker makes the job-to-worker assignment deterministic: BeAFix
	// instances carry search state across the jobs of their worker, so
	// multi-worker runs depend on scheduling regardless of telemetry.
	plain, err := (&Runner{Workers: 1}).Evaluate(suite, factories)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := (&Runner{Workers: 1, Telemetry: telemetry.New()}).Evaluate(suite, factories)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range factories {
		for name, pr := range plain.Results[f.Name] {
			ir := instr.Results[f.Name][name]
			if ir == nil {
				t.Fatalf("%s/%s missing from instrumented run", f.Name, name)
			}
			if pr.REP != ir.REP || pr.TM != ir.TM || pr.SM != ir.SM ||
				pr.Outcome.Repaired != ir.Outcome.Repaired ||
				pr.Outcome.Stats != ir.Outcome.Stats {
				t.Errorf("%s/%s diverged with telemetry on:\nplain %+v\ninstr %+v",
					f.Name, name, pr, ir)
			}
		}
	}
}

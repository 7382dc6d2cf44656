package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"specrepair/internal/anacache"
	"specrepair/internal/telemetry"
)

// The benchmark reads and writes paths relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkFileListsEveryMetric checks that BENCHMARK.json names the
// workloads and metrics the program reports, with the same units.
func TestBenchmarkFileListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(want))
			return
		}
		for i, m := range listed {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// design is the part of workloads.json the counter test reads.
type design struct {
	Workloads map[string]struct {
		Citable    []string `json:"citable_counters"`
		NotCitable []string `json:"not_citable_counters"`
	} `json:"workloads"`
}

// tinyCounts runs one workload once at a tiny size and returns its [C]
// counters.
var tinyCounts = map[string]func(t *testing.T) map[string]int64{
	"study": func(t *testing.T) map[string]int64 {
		p, err := runStudyPass(1, 1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		return counts(p.cache, p.regs...)
	},
	"shard": func(t *testing.T) map[string]int64 {
		p, err := runShardPass(1, 1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		return counts(p.cache, p.regs...)
	},
	"verify": func(t *testing.T) map[string]int64 {
		in, err := verifySetup(1)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		if p := runVerifyPass(in, in.order[:40], newVerifyAnalyzer(reg)); p.errors > 0 {
			t.Fatalf("%d ExecuteAll calls failed", p.errors)
		}
		return counts(anacache.Stats{}, reg)
	},
	"serve": func(t *testing.T) map[string]int64 {
		in, err := serveSetup(1, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer in.srv.stop()
		lr, err := drive(in.srv, in.arrivals)
		if err != nil {
			t.Fatal(err)
		}
		if lr.failed > 0 {
			t.Fatalf("serve: %d of %d submissions failed: %v", lr.failed, lr.attempted, lr.problems)
		}
		return counts(lr.stats.Cache, in.reg)
	},
}

// TestCountersRepeat runs every workload twice at a tiny size. Each counter
// workloads.json marks citable must read the same both times; the rest are
// listed as not citable, and a counter that is neither is an error.
func TestCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	b, err := os.ReadFile("perfbench/workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var d design
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first, second := tinyCounts[w.name](t), tinyCounts[w.name](t)
			marked := map[string]string{}
			for _, c := range d.Workloads[w.name].Citable {
				marked[c] = "citable"
			}
			for _, c := range d.Workloads[w.name].NotCitable {
				marked[c] = "not citable"
			}
			names := make([]string, 0, len(first))
			for name := range first {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				repeats := first[name] == second[name]
				switch marked[name] {
				case "citable":
					if !repeats {
						t.Errorf("citable counter %s read %d then %d", name, first[name], second[name])
					}
				case "not citable":
					t.Logf("not citable: %s read %d then %d", name, first[name], second[name])
				default:
					t.Errorf("counter %s (read %d then %d) is not marked in workloads.json", name, first[name], second[name])
				}
			}
		})
	}
}

// TestServeReferencesCoverCorpus checks that refs.json holds a reference
// for every (spec, technique) job serve can submit, so a window of any
// length can be checked.
func TestServeReferencesCoverCorpus(t *testing.T) {
	specs, err := generateCorpus(studyScale)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spreadJobs(specs, len(specs))
	if err != nil {
		t.Fatal(err)
	}
	all, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, ok := all["serve"][j.label]; !ok {
			t.Errorf("no serve reference for %s", j.label)
		}
	}
	if len(all["serve"]) != len(jobs) {
		t.Errorf("refs.json holds %d serve references, the corpus has %d jobs", len(all["serve"]), len(jobs))
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the benchmark's spreads are
// stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1, 9}, 1, 9},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestChargeStack checks how CPU samples are charged to layers.
func TestChargeStack(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "specrepair/internal/alloy/ast.(*Module).Clone", "specrepair/internal/alloy/types.Lower"}, "ast"},
		{[]string{"specrepair/internal/sat.(*Solver).propagate", "specrepair/internal/analyzer.(*session).run"}, "sat"},
		{[]string{"specrepair/internal/bounds.Build"}, "translate"},
		{[]string{"specrepair/internal/repair/beafix.(*Tool).Repair.func1"}, "repair"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"specrepair/internal/core.Map[go.shape.*specrepair/internal/alloy/ast.Module]"}, "core"},
		{[]string{"runtime.futex", "runtime.mcall"}, "other"},
	} {
		if got := chargeStack(tc.stack); got != tc.want {
			t.Errorf("chargeStack(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestCPUSharesDecodesProfile profiles a busy loop and checks the shares.
func TestCPUSharesDecodesProfile(t *testing.T) {
	shares, samples, err := cpuShares(func() error {
		deadline := time.Now().Add(300 * time.Millisecond)
		for x := 0; time.Now().Before(deadline); x++ {
			_ = fmt.Sprint(x)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no samples")
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("shares add up to %v%%", total)
	}
}

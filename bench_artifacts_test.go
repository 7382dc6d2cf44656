package specrepair

// Machine-readable companions to the prose bench reports: BENCH_SAT.txt and
// BENCH_INCREMENTAL.txt stay as committed (the recorded runs, with their
// reading guides), and BENCH_SAT.json / BENCH_INCREMENTAL.json carry the
// same numbers for tooling. Regenerate with:
//
//	BENCH_JSON=1 go test . -run 'TestWriteBenchSATJSON|TestWriteBenchIncrementalJSON'
//
// The writers transcribe the recorded numbers rather than re-running the
// benchmarks, so the .json always agrees with the .txt it mirrors; re-record
// the .txt first when refreshing either.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"specrepair/internal/bench"
)

// TestWriteBenchSATJSON mirrors BENCH_SAT.txt (the BenchmarkAblationSAT
// trajectory) into BENCH_SAT.json.
func TestWriteBenchSATJSON(t *testing.T) {
	if os.Getenv("BENCH_JSON") == "" {
		t.Skip("set BENCH_JSON=1 to regenerate BENCH_SAT.json")
	}
	file := bench.BenchFile{
		Benchmark: "BenchmarkAblationSAT",
		Note: "transcribed from BENCH_SAT.txt: seed-pinned hard UNSAT 3-SAT cores on an " +
			"Intel Xeon @ 2.70GHz, GOMAXPROCS=1. no-learning takes 49.7x the cdcl time: " +
			"clause learning is the decisive ingredient.",
		Results: []bench.BenchResult{
			bench.ResultFrom("cdcl", 5, 3621385, 0, 0, nil),
			bench.ResultFrom("cdcl-noreduce", 5, 3171370, 0, 0, nil),
			bench.ResultFrom("no-learning", 5, 180099472, 0, 0, nil),
			bench.ResultFrom("naive-dpll", 5, 140621544, 0, 0, nil),
		},
	}
	if err := bench.WriteBenchJSON("BENCH_SAT.json", file); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBenchIncrementalJSON mirrors BENCH_INCREMENTAL.txt (the
// BenchmarkIncrementalCandidates count=3 recording) into
// BENCH_INCREMENTAL.json, one result per recorded run.
func TestWriteBenchIncrementalJSON(t *testing.T) {
	if os.Getenv("BENCH_JSON") == "" {
		t.Skip("set BENCH_JSON=1 to regenerate BENCH_INCREMENTAL.json")
	}
	file := bench.BenchFile{
		Benchmark: "BenchmarkIncrementalCandidates",
		Note: "transcribed from BENCH_INCREMENTAL.txt: candidate-evaluation throughput on " +
			"the 1/200 corpus slice (21 specs, 60-candidate streams), Intel Xeon @ 2.10GHz, " +
			"-benchtime 4x -count=3. Median candidates/sec: fresh 797.9, incremental 1642 " +
			"— 2.06x.",
		Results: []bench.BenchResult{
			bench.ResultFrom("fresh/run1", 4, 1391130610, 0, 0, map[string]float64{"cand_per_s": 797.9}),
			bench.ResultFrom("fresh/run2", 4, 1385613769, 0, 0, map[string]float64{"cand_per_s": 801.1}),
			bench.ResultFrom("fresh/run3", 4, 1433912880, 0, 0, map[string]float64{"cand_per_s": 774.1}),
			bench.ResultFrom("incremental/run1", 4, 644452405, 0, 0, map[string]float64{"cand_per_s": 1722}),
			bench.ResultFrom("incremental/run2", 4, 692269050, 0, 0, map[string]float64{"cand_per_s": 1603}),
			bench.ResultFrom("incremental/run3", 4, 676204125, 0, 0, map[string]float64{"cand_per_s": 1642}),
			bench.ResultFrom("median-speedup", 1, 0, 0, 0, map[string]float64{
				"fresh_cand_per_s":       797.9,
				"incremental_cand_per_s": 1642,
				"speedup":                1642.0 / 797.9,
			}),
		},
	}
	if err := bench.WriteBenchJSON("BENCH_INCREMENTAL.json", file); err != nil {
		t.Fatal(err)
	}
}

// TestBenchArtifactsParse validates every committed BENCH_*.json: parses,
// names the benchmark, and carries at least one named result. Runs
// unconditionally so a hand-edited artifact cannot rot silently.
func TestBenchArtifactsParse(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no BENCH_*.json artifacts committed yet")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file bench.BenchFile
		if err := json.Unmarshal(data, &file); err != nil {
			t.Errorf("%s: does not parse: %v", path, err)
			continue
		}
		if file.Benchmark == "" {
			t.Errorf("%s: missing benchmark name", path)
		}
		if len(file.Results) == 0 {
			t.Errorf("%s: no results", path)
		}
		for i, r := range file.Results {
			if r.Name == "" {
				t.Errorf("%s: result %d has no name", path, i)
			}
		}
	}
}

// Command perfbench is the repository's benchmark. It runs one named
// workload through the public APIs of the study harness, the analyzer, the
// repair service and the sharded study, checks every output against the
// recorded references, and prints each metric by name with its unit and
// sample count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced. With
// -trace 1 they are the per-layer ones: program counters read after an
// untraced pass, span self times and a CPU profile of a traced pass, replays
// of the workload's own inputs through each layer's public functions, and
// the tracing overhead from paired traced and untraced passes.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 18 --trace 0
//
// The workload seed is reduced onto refSeeds recorded inputs (see
// seedOf), so every run's outputs have a reference digest in
// perfbench/refs.json; -write-refs recomputes that file.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// refSeeds is the number of distinct workload inputs: a command-line seed
// selects one of them, and each has a recorded reference digest.
const refSeeds = 16

// refsPath is where the reference digests live, relative to the checkout.
const refsPath = "perfbench/refs.json"

// scratchDir holds the benchmark's temporary files (service journals),
// inside the checkout and ignored by git.
const scratchDir = ".bench_build/tmp"

// seedOf maps any command-line seed onto 1..refSeeds.
func seedOf(seed int64) int64 {
	return 1 + ((seed-1)%refSeeds+refSeeds)%refSeeds
}

// metric is one reported figure with its sample count.
type metric struct {
	value   float64
	unit    string
	samples int
}

// report accumulates one run's metrics and output-check failures.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; samples is the number of observations behind it.
func (r *report) set(name, unit string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{value: v, unit: unit, samples: samples}
}

// problem records a failed output check without attributing it to a job.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// run measures the workload untraced and fills the end-to-end metrics.
	run func(seed int64, seconds float64, r *report) error
	// trace fills the per-layer metrics.
	trace func(seed int64, seconds float64, r *report) error
}

var workloads = []workload{
	{name: "study", run: runStudy, trace: traceStudy},
	{name: "verify", run: runVerify, trace: traceVerify},
	{name: "serve", run: runServe, trace: traceServe},
	{name: "shard", run: runShard, trace: traceShard},
}

func main() {
	name := flag.String("workload", "", "workload: study, verify, serve or shard")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 18, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced runs, 0 end-to-end metrics")
	writeRefs := flag.Bool("write-refs", false, "recompute "+refsPath+" for every recorded seed and exit")
	flag.Parse()

	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *writeRefs {
		if err := writeReferences(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload study|verify|serve|shard -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	in := seedOf(*seed)
	prov := provenance(*seed, in)
	fmt.Fprintf(os.Stderr, "perfbench: workload %s, seed %d (input %d), %gs, trace %d; %s\n",
		w.name, *seed, in, *seconds, *trace, prov)

	r := newReport()
	run, listed := w.run, endToEnd
	if *trace == 1 {
		run, listed = w.trace, perLayer
	}
	if err := run(in, *seconds, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	conform(r, listed)
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", w.name)
		os.Exit(1)
	}
	emit(prov, r)
}

// provenance describes the host and inputs every result was measured on.
func provenance(seed, input int64) string {
	commit := ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = sourceDigest()
	}
	return fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d go=%s commit=%s seed=%d input_seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed, input)
}

// sourceDigest fingerprints the Go sources of the checkout, standing in for
// the commit when the checkout is not a git repository.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// emit prints every metric as a readable line with its unit and sample
// count, then the provenance and failure share, then the JSON result line.
func emit(prov string, r *report) {
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	for _, k := range names {
		m := r.metrics[k]
		fmt.Printf("%-40s %14.6g %-10s n=%d\n", k, m.value, m.unit, m.samples)
		out[k] = jm{Value: m.value, Unit: m.unit}
	}
	correct := len(r.problems) == 0 && r.failed == 0
	fmt.Printf("failed_frac %g (%d of %d attempted); %s\n",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted, prov)
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// timeSetup runs setup at least setupMin times, and more until setupSpan has
// passed, so a quick set-up is sampled often enough for its median to hold
// still. It returns the last result and every set-up time in seconds. Every
// earlier result is handed to release, when it is not nil, before the next
// set-up starts.
func timeSetup[T any](setup func() (T, error), release func(T)) (T, []float64, error) {
	var last T
	var walls []float64
	var spent time.Duration
	for len(walls) < setupMin || spent < setupSpan {
		if len(walls) > 0 && release != nil {
			release(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		d := time.Since(start)
		spent += d
		walls = append(walls, d.Seconds())
		last = v
	}
	return last, walls, nil
}

// setup_s is the median of at least setupMin set-ups spanning at least
// setupSpan.
const (
	setupMin  = 5
	setupSpan = 2 * time.Second
)

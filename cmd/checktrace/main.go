// Command checktrace validates a JSONL span trace produced by -trace.
//
// It decodes every line as a telemetry.SpanRecord and checks two layers of
// invariants:
//
//   - per-record: every span has a name, a span ID and a trace ID; "job"
//     spans carry technique, spec, and a positive duration; incremental
//     counters are non-negative.
//   - hierarchy: span IDs are unique, every
//     non-root span's parent exists in the same trace, parent links are
//     acyclic, and child intervals nest inside their parent's (with a small
//     slack for clock reads on either side of the span boundary).
//
// Any violation exits non-zero, which makes it usable as a CI assertion:
//
//	experiments -scale 400 -table1 -trace t.jsonl && checktrace t.jsonl
//
// Multiple files validate as one merged trace set — the shape a sharded
// study produces, one file per worker process. Span IDs are only required
// to be unique within their trace (workers seed distinct trace IDs, see
// experiments -worker), so a span-ID collision across two workers' files is
// not a duplicate; the same (trace, span) pair appearing twice is:
//
//	checktrace worker1.jsonl worker2.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"specrepair/internal/telemetry"
)

// nestSlackNs tolerates the clock reads that bracket a span boundary (a
// parent's externally measured duration can undershoot a child's by the cost
// of the surrounding instrumentation).
const nestSlackNs = 2_000_000 // 2ms

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "checktrace:", err)
		os.Exit(1)
	}
}

// traceStats accumulates per-record tallies across all input files.
type traceStats struct {
	recs                                 []telemetry.SpanRecord
	badDur                               int64
	total                                int64 // summed job duration, ns
	incQueries, incFallbacks, incCarried int64
	techniques                           map[string]int64
	kinds                                map[string]int64
	traces                               map[string]bool // distinct trace IDs
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: checktrace <trace.jsonl> [more.jsonl ...]")
	}
	st := &traceStats{
		techniques: map[string]int64{},
		kinds:      map[string]int64{},
		traces:     map[string]bool{},
	}
	for _, path := range args {
		if err := readFile(path, st); err != nil {
			return err
		}
	}
	if len(st.recs) == 0 {
		return fmt.Errorf("%s: no spans", strings.Join(args, " "))
	}
	if st.badDur > 0 {
		return fmt.Errorf("%d of %d spans have non-positive durations", st.badDur, len(st.recs))
	}

	depths, err := checkHierarchy(st.recs)
	if err != nil {
		return err
	}

	label := args[0]
	if len(args) > 1 {
		label = fmt.Sprintf("%d files (%d traces)", len(args), len(st.traces))
	}
	fmt.Printf("%s: %d spans, %d techniques, %.3fs total job time, %d incremental queries (%d fallbacks, %d learnts carried)\n",
		label, len(st.recs), len(st.techniques), float64(st.total)/1e9, st.incQueries, st.incFallbacks, st.incCarried)
	names := make([]string, 0, len(st.kinds))
	for k := range st.kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  kind %-22s %d\n", k, st.kinds[k])
	}
	fmt.Printf("  depth histogram:")
	for d := 0; d < len(depths); d++ {
		fmt.Printf(" %d:%d", d, depths[d])
	}
	fmt.Println()
	return nil
}

// readFile decodes and per-record-validates one JSONL trace file into st.
func readFile(path string, st *traceStats) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		raw := sc.Bytes()
		line++
		if len(raw) == 0 {
			continue
		}
		var sr telemetry.SpanRecord
		if err := json.Unmarshal(raw, &sr); err != nil {
			return fmt.Errorf("%s:%d: invalid JSON: %w", path, line, err)
		}
		if sr.Name == "" {
			return fmt.Errorf("%s:%d: span missing name: %s", path, line, raw)
		}
		if sr.SpanID == "" || sr.TraceID == "" {
			return fmt.Errorf("%s:%d: span missing span_id/trace_id: %s", path, line, raw)
		}
		if sr.Name == "job" {
			if sr.Technique == "" || sr.Spec == "" {
				return fmt.Errorf("%s:%d: job span missing technique/spec: %s", path, line, raw)
			}
			if sr.DurationNs <= 0 {
				st.badDur++
			}
			st.techniques[sr.Technique]++
			st.total += sr.DurationNs
		}
		if sr.IncQueries < 0 || sr.IncFallbacks < 0 || sr.IncCarriedLearnts < 0 {
			return fmt.Errorf("%s:%d: span has negative incremental counters: %s", path, line, raw)
		}
		st.incQueries += sr.IncQueries
		st.incFallbacks += sr.IncFallbacks
		st.incCarried += sr.IncCarriedLearnts
		st.kinds[sr.Name]++
		st.traces[sr.TraceID] = true
		st.recs = append(st.recs, sr)
	}
	return sc.Err()
}

// checkHierarchy validates parent existence, acyclicity, and interval
// nesting. It returns the depth histogram (depths[d] = number of spans at
// depth d; roots are depth 0).
func checkHierarchy(recs []telemetry.SpanRecord) ([]int64, error) {
	byID := map[string]*telemetry.SpanRecord{}
	for i := range recs {
		sr := &recs[i]
		key := sr.TraceID + "/" + sr.SpanID
		if _, dup := byID[key]; dup {
			return nil, fmt.Errorf("duplicate span ID %s in trace %s", sr.SpanID, sr.TraceID)
		}
		byID[key] = sr
	}

	depth := map[string]int{}
	var walk func(sr *telemetry.SpanRecord, seen map[string]bool) (int, error)
	walk = func(sr *telemetry.SpanRecord, seen map[string]bool) (int, error) {
		key := sr.TraceID + "/" + sr.SpanID
		if d, ok := depth[key]; ok {
			return d, nil
		}
		if sr.ParentID == "" {
			depth[key] = 0
			return 0, nil
		}
		if seen[key] {
			return 0, fmt.Errorf("cycle in parent links at span %s (trace %s)", sr.SpanID, sr.TraceID)
		}
		seen[key] = true
		parent, ok := byID[sr.TraceID+"/"+sr.ParentID]
		if !ok {
			return 0, fmt.Errorf("span %s (kind %s) references missing parent %s in trace %s",
				sr.SpanID, sr.Name, sr.ParentID, sr.TraceID)
		}
		pd, err := walk(parent, seen)
		if err != nil {
			return 0, err
		}
		// Nesting: the child's interval must lie within the parent's.
		if sr.StartUnixNs < parent.StartUnixNs-nestSlackNs {
			return 0, fmt.Errorf("span %s (kind %s) starts %dns before its parent %s (kind %s)",
				sr.SpanID, sr.Name, parent.StartUnixNs-sr.StartUnixNs, parent.SpanID, parent.Name)
		}
		if end, pend := sr.StartUnixNs+sr.DurationNs, parent.StartUnixNs+parent.DurationNs; end > pend+nestSlackNs {
			return 0, fmt.Errorf("span %s (kind %s) ends %dns after its parent %s (kind %s)",
				sr.SpanID, sr.Name, end-pend, parent.SpanID, parent.Name)
		}
		depth[key] = pd + 1
		return pd + 1, nil
	}
	maxDepth := 0
	for _, sr := range byID {
		d, err := walk(sr, map[string]bool{})
		if err != nil {
			return nil, err
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	depths := make([]int64, maxDepth+1)
	for _, d := range depth {
		depths[d]++
	}
	return depths, nil
}

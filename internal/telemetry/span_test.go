package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestTraceRoundTrip writes job spans through the registry's sink and
// decodes the JSONL back into records identical to the ones emitted.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	emitted := &captureSink{}
	reg := New()
	reg.SetSink(MultiSink(tw, emitted))

	records := []JobRecord{
		{
			Technique: "BeAFix", Spec: "A4F/classroom_inv1_1",
			Duration: 1500 * time.Millisecond,
			Outcome:  OutcomeRepaired, REP: 1,
			Candidates: 42, AnalyzerCalls: 45, TestRuns: 0, Iterations: 0,
			Effort: JobEffort{
				Solves: 90, Conflicts: 1234, Decisions: 5678, Propagations: 91011,
				BudgetExhausted: 1, SolveNs: 900_000_000, CacheHits: 30, CacheMisses: 15,
			},
		},
		{
			Technique: "ARepair", Spec: "ARepair/addr_1",
			Duration: 20 * time.Millisecond,
			Outcome:  OutcomeFailed, REP: 0,
			TestRuns: 7, Iterations: 3,
		},
		{
			Technique: "ATR", Spec: "A4F/graphs_1",
			Duration: time.Millisecond,
			Outcome:  OutcomeError,
		},
	}
	// The payload each record must carry on the wire: zero counts are
	// omitted, REP never is.
	wantMetrics := []map[string]int64{
		{"rep": 1, "candidates": 42, "analyzer_calls": 45, "solves": 90, "conflicts": 1234,
			"decisions": 5678, "propagations": 91011, "budget_exhausted": 1,
			"solve_ns": 900_000_000, "cache_hits": 30, "cache_misses": 15},
		{"rep": 0, "test_runs": 7, "iterations": 3},
		{"rep": 0},
	}
	var starts []int64
	for _, jr := range records {
		sp := reg.StartSpan("job")
		sp.SetAttr("technique", jr.Technique)
		sp.SetAttr("spec", jr.Spec)
		starts = append(starts, reg.unixNs(sp.Start()))
		jr.Span = sp
		reg.RecordJob(jr)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	var got []SpanRecord
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var sr SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, sr)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("decoded %d spans, want %d", len(got), len(records))
	}
	for i, jr := range records {
		if !reflect.DeepEqual(got[i], emitted.recs[i]) {
			t.Errorf("span %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], emitted.recs[i])
		}
		wantAttrs := map[string]string{"technique": jr.Technique, "spec": jr.Spec, "outcome": jr.Outcome}
		if !reflect.DeepEqual(got[i].Attrs, wantAttrs) {
			t.Errorf("span %d attrs = %v, want %v", i, got[i].Attrs, wantAttrs)
		}
		if !reflect.DeepEqual(got[i].Metrics, wantMetrics[i]) {
			t.Errorf("span %d metrics = %v, want %v", i, got[i].Metrics, wantMetrics[i])
		}
	}

	// Spot-check the wire format itself, so the JSONL contract (not just the
	// Go round trip) is pinned down.
	first := got[0]
	if first.Name != "job" {
		t.Errorf("span name = %q", first.Name)
	}
	if first.StartUnixNs != starts[0] {
		t.Errorf("start_unix_ns = %d, want %d", first.StartUnixNs, starts[0])
	}
	if first.DurationNs <= 0 {
		t.Errorf("duration_ns = %d", first.DurationNs)
	}
	line := buf.Bytes()[:bytes.IndexByte(buf.Bytes(), '\n')]
	for _, key := range []string{`"name":"job"`, `"technique":"BeAFix"`, `"outcome":"repaired"`, `"conflicts":1234`} {
		if !bytes.Contains(line, []byte(key)) {
			t.Errorf("first line missing %s: %s", key, line)
		}
	}
}

// TestTraceWriterConcurrent ensures interleaved Record calls still produce
// one valid JSON object per line.
func TestTraceWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				tw.Record(SpanRecord{Name: "job", Attrs: map[string]string{"technique": "T"}, Metrics: map[string]int64{"rep": int64(w)}})
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var sr SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
			t.Fatalf("corrupt line %d: %v", lines, err)
		}
		lines++
	}
	if lines != 800 {
		t.Errorf("lines = %d, want 800", lines)
	}
}

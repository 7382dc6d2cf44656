package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"specrepair/internal/telemetry"
)

// TestTracedStudyOutputsUnchanged is the end-to-end A/B guard for the
// hierarchical tracing layer: a study run streaming its full span tree and a
// run with no sink installed must produce byte-identical paper artifacts.
// Tracing is pure observability; any divergence here is a soundness bug.
func TestTracedStudyOutputsUnchanged(t *testing.T) {
	run := func(reg *telemetry.Registry) *Study {
		t.Helper()
		s, err := RunStudy(Config{Seed: 7, Scale: 300, Telemetry: reg})
		if err != nil {
			t.Fatalf("RunStudy: %v", err)
		}
		return s
	}
	var buf bytes.Buffer
	tracedReg := telemetry.New()
	tw := telemetry.NewTraceWriter(&buf)
	tracedReg.SetSink(tw)
	traced := run(tracedReg)
	if err := tw.Flush(); err != nil {
		t.Fatalf("trace writer: %v", err)
	}
	plain := run(telemetry.New())

	for _, cmp := range []struct {
		name          string
		traced, plain string
	}{
		{"TableI", traced.TableI(), plain.TableI()},
		{"Figure2", traced.RenderFigure2(), plain.RenderFigure2()},
		{"Figure3", traced.RenderFigure3(), plain.RenderFigure3()},
		{"TableII", traced.RenderTableII(), plain.RenderTableII()},
		{"Figure4", traced.RenderFigure4(), plain.RenderFigure4()},
		{"Summary", stripCacheStats(traced.Summary()), stripCacheStats(plain.Summary())},
	} {
		if cmp.traced != cmp.plain {
			t.Errorf("%s differs between traced and untraced runs:\n--- traced ---\n%s\n--- untraced ---\n%s",
				cmp.name, cmp.traced, cmp.plain)
		}
	}

	checkSpanTree(t, buf.Bytes())
}

// checkSpanTree decodes the JSONL trace and asserts the structural
// guarantees downstream tooling relies on: one study root, every non-root
// parent resolvable, and at least 4 populated nesting levels
// (study → phase → job → technique round/eval → sat solve).
func checkSpanTree(t *testing.T, trace []byte) {
	t.Helper()
	type node struct {
		rec   telemetry.SpanRecord
		depth int
	}
	byID := map[string]*node{}
	var all []*node
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var sr telemetry.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
			t.Fatalf("invalid trace line %q: %v", sc.Text(), err)
		}
		if sr.SpanID == "" {
			t.Fatalf("span without ID: %+v", sr)
		}
		n := &node{rec: sr, depth: -1}
		if _, dup := byID[sr.SpanID]; dup {
			t.Fatalf("duplicate span ID %s", sr.SpanID)
		}
		byID[sr.SpanID] = n
		all = append(all, n)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("trace is empty")
	}

	roots := 0
	var resolve func(n *node) int
	resolve = func(n *node) int {
		if n.depth >= 0 {
			return n.depth
		}
		if n.rec.ParentID == "" {
			n.depth = 0
			return 0
		}
		p, ok := byID[n.rec.ParentID]
		if !ok {
			t.Fatalf("span %s (kind %s) has unresolvable parent %s",
				n.rec.SpanID, n.rec.Name, n.rec.ParentID)
		}
		n.depth = resolve(p) + 1
		return n.depth
	}
	levels := map[int]int{}
	maxDepth := 0
	for _, n := range all {
		d := resolve(n)
		levels[d]++
		if d > maxDepth {
			maxDepth = d
		}
		if d == 0 {
			roots++
			if n.rec.Name != "study" {
				t.Fatalf("root span has kind %q, want study", n.rec.Name)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("got %d root spans, want 1", roots)
	}
	if maxDepth < 4 {
		t.Fatalf("span tree only %d levels deep, want >= 4 populated levels (histogram %v)", maxDepth+1, levels)
	}
	for d := 0; d <= 4; d++ {
		if levels[d] == 0 {
			t.Fatalf("nesting level %d is empty: %v", d, levels)
		}
	}
	// Jobs must nest under phases under the study root.
	sawJob := false
	for _, n := range all {
		if n.rec.Name != "job" {
			continue
		}
		sawJob = true
		p := byID[n.rec.ParentID]
		if p.rec.Name != "phase" {
			t.Fatalf("job %s parents to %q, want phase", n.rec.SpanID, p.rec.Name)
		}
		if n.rec.Attrs["technique"] == "" || n.rec.Attrs["spec"] == "" {
			t.Fatalf("job span missing technique/spec: %+v", n.rec)
		}
	}
	if !sawJob {
		t.Fatal("no job spans in trace")
	}
}

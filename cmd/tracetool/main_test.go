package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fixture(t *testing.T) string {
	t.Helper()
	lines := []string{
		`{"name":"study","trace_id":"1","span_id":"1","start_unix_ns":0,"duration_ns":100000000}`,
		`{"name":"phase","trace_id":"1","span_id":"2","parent_id":"1","start_unix_ns":0,"duration_ns":90000000,"attrs":{"name":"evaluate_a4f"}}`,
		`{"name":"job","trace_id":"1","span_id":"3","parent_id":"2","lane":1,"start_unix_ns":1000,"duration_ns":60000000,"attrs":{"technique":"ATR","spec":"A4F/cv/0000","outcome":"repaired"},"metrics":{"rep":1}}`,
		`{"name":"candidate.eval","trace_id":"1","span_id":"4","parent_id":"3","lane":1,"start_unix_ns":2000,"duration_ns":50000000}`,
		`{"name":"sat.solve","trace_id":"1","span_id":"5","parent_id":"4","lane":1,"start_unix_ns":3000,"duration_ns":40000000,"attrs":{"status":"SAT"}}`,
		`{"name":"job","trace_id":"1","span_id":"6","parent_id":"2","lane":2,"start_unix_ns":1000,"duration_ns":10000000,"attrs":{"technique":"BeAFix","spec":"A4F/cv/0000","outcome":"failed"},"metrics":{"rep":0}}`,
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs main's run() with stdout redirected and returns the output.
func capture(t *testing.T, args []string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out, readErr := io.ReadAll(r)
	r.Close()
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(out)
}

func TestSummary(t *testing.T) {
	out := capture(t, []string{"summary", fixture(t)})
	for _, want := range []string{"6 spans", "job", "sat.solve", "TOP JOBS", "ATR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary output missing %q:\n%s", want, out)
		}
	}
}

func TestCriticalPath(t *testing.T) {
	out := capture(t, []string{"critical", "-top", "1", fixture(t)})
	// The most expensive job is ATR; its dominant chain descends through
	// candidate.eval into sat.solve.
	for _, want := range []string{"job ATR", "candidate.eval", "sat.solve"} {
		if !strings.Contains(out, want) {
			t.Fatalf("critical output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BeAFix") {
		t.Fatalf("critical -top 1 included the cheaper job:\n%s", out)
	}
}

func TestSelftime(t *testing.T) {
	out := capture(t, []string{"selftime", fixture(t)})
	if !strings.Contains(out, "sat.solve") || !strings.Contains(out, "SELF TIME") {
		t.Fatalf("selftime output:\n%s", out)
	}
	// sat.solve is the leaf with 40ms: it must rank first.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "sat.solve") {
		t.Fatalf("sat.solve not ranked first:\n%s", out)
	}
}

func TestStragglersSmallSample(t *testing.T) {
	// Too few samples per kind: no stragglers, but no error either.
	out := capture(t, []string{"stragglers", fixture(t)})
	if !strings.Contains(out, "no stragglers") {
		t.Fatalf("stragglers output:\n%s", out)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if err := run([]string{"nope", fixture(t)}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

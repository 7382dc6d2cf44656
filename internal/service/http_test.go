package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/bench"
)

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %s response: %v", resp.Request.URL, err)
	}
	return v
}

// The full client journey over HTTP: submit, long-poll to completion, fetch
// the repaired spec, and observe the duplicate short-circuit.
func TestHTTPSubmitPollFetch(t *testing.T) {
	svc := newService(t, Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/jobs", Submission{Spec: faultySrc, Technique: "BeAFix"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	sub := decodeBody[submitResponse](t, resp)
	if sub.ID == "" || sub.Duplicate {
		t.Fatalf("submit response: %+v", sub)
	}

	// Long-poll until terminal.
	pollResp, err := http.Get(srv.URL + "/jobs/" + sub.ID + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	snap := decodeBody[Snapshot](t, pollResp)
	if !snap.State.Terminal() {
		t.Fatalf("after wait=30s job is still %s", snap.State)
	}
	if snap.State != StateDone || !snap.Repaired {
		t.Fatalf("job ended state=%s repaired=%v error=%q", snap.State, snap.Repaired, snap.Error)
	}

	resResp, err := http.Get(srv.URL + "/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resResp.Body.Close()
	if resResp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resResp.StatusCode)
	}
	spec, _ := io.ReadAll(resResp.Body)
	if !strings.Contains(string(spec), "sig Node") {
		t.Fatalf("result does not look like a spec:\n%s", spec)
	}

	// An identical second submission aliases the finished job with 200.
	dupResp := postJSON(t, srv.URL+"/jobs", Submission{Spec: faultySrc, Technique: "BeAFix"})
	if dupResp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit: HTTP %d, want 200", dupResp.StatusCode)
	}
	dup := decodeBody[submitResponse](t, dupResp)
	if !dup.Duplicate || dup.ID != sub.ID {
		t.Fatalf("duplicate response: %+v, want alias of %s", dup, sub.ID)
	}
}

// The NDJSON stream must deliver at least the initial snapshot and a
// terminal one, ending when the job finishes.
func TestHTTPStream(t *testing.T) {
	svc := newService(t, Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sub := decodeBody[submitResponse](t, postJSON(t, srv.URL+"/jobs",
		Submission{Spec: hardSrc, Technique: "BeAFix"}))
	resp, err := http.Get(srv.URL + "/jobs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type %q", ct)
	}
	var last Snapshot
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line %d: %v", lines, err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("stream delivered no snapshots")
	}
	if !last.State.Terminal() {
		t.Fatalf("stream ended on non-terminal state %s", last.State)
	}
}

// Admission failures and lookups map to their HTTP statuses: 400 for
// validation, 404 for unknown jobs, 409 for a result that is not ready,
// 429 with Retry-After for a full queue.
func TestHTTPErrorMapping(t *testing.T) {
	// The cache is disabled so every job pays full analysis cost (~tens of
	// ms); otherwise the first job warms the shared cache and the single
	// worker drains the queue faster than HTTP can fill it.
	svc := newService(t, Options{QueueDepth: 1, Workers: 1, DisableCache: true})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if resp := postJSON(t, srv.URL+"/jobs", Submission{Spec: "sig {", Technique: "BeAFix"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: HTTP %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(srv.URL + "/jobs/jdeadbeef"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Saturate the queue from in-process (microseconds per Submit, so the
	// single ~50ms worker cannot keep up), then demand the 429 over HTTP.
	// If the worker happens to free a slot between saturation and the POST,
	// the POST is accepted — re-saturate and try again.
	var lastID string
	var got429 bool
	seed := int64(1)
	for attempt := 0; attempt < 50 && !got429; attempt++ {
		for {
			snap, _, err := svc.Submit(Submission{Spec: hardSrc, Technique: "BeAFix", Seed: seed})
			seed++
			if errors.Is(err, ErrQueueFull) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			lastID = snap.ID
		}
		resp := postJSON(t, srv.URL+"/jobs", Submission{Spec: hardSrc, Technique: "BeAFix", Seed: seed})
		seed++
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			got429 = true
		case http.StatusAccepted:
			lastID = decodeBody[submitResponse](t, resp).ID
			continue
		default:
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !got429 {
		t.Fatal("full queue never produced a 429")
	}
	resp, err := http.Get(srv.URL + "/jobs/" + lastID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		t.Fatalf("in-progress result: HTTP %d, want 409 (or 200 if already done)", resp.StatusCode)
	}
}

// /healthz flips to 503 when draining; /stats and /metrics stay readable.
func TestHTTPHealthAndMetrics(t *testing.T) {
	svc := newService(t, Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, path := range []string{"/healthz", "/stats", "/metrics", "/metrics.json", "/jobs", "/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
	}
	svc.beginDrain()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz: HTTP %d, want 503", resp.StatusCode)
	}
}

// A POST /jobs body one byte over the cap is refused with 413 and a JSON
// error before anything is admitted, while the largest corpus submission
// still gets 202.
func TestHTTPSubmitBodyCap(t *testing.T) {
	svc := newService(t, Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	prefix, suffix := `{"spec":"`, `","technique":"BeAFix"}`
	pad := strings.Repeat(" ", maxSubmitBytes+1-len(prefix)-len(suffix))
	body := prefix + pad + suffix
	if len(body) != maxSubmitBytes+1 {
		t.Fatalf("body is %d bytes, want %d", len(body), maxSubmitBytes+1)
	}
	before := svc.Stats()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: HTTP %d, want 413", resp.StatusCode)
	}
	if eb := decodeBody[errorBody](t, resp); eb.Error == "" {
		t.Fatal("413 without a JSON error body")
	}
	if after := svc.Stats(); after.Submitted != before.Submitted || len(svc.Jobs()) != 0 {
		t.Fatalf("oversized submit changed the queue: submitted %d -> %d, %d jobs",
			before.Submitted, after.Submitted, len(svc.Jobs()))
	}

	gen := bench.NewGenerator(nil)
	gen.Scale = 400
	a4f, ar, err := gen.Both()
	if err != nil {
		t.Fatal(err)
	}
	var largest Submission
	var largestLen int
	for _, sp := range append(a4f.Specs, ar.Specs...) {
		sub := Submission{Spec: printer.Module(sp.Faulty), Tests: sp.Tests.Tests, Technique: "BeAFix"}
		b, err := json.Marshal(sub)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > largestLen {
			largest, largestLen = sub, len(b)
		}
	}
	resp = postJSON(t, srv.URL+"/jobs", largest)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus submission (%d bytes): HTTP %d, want 202", largestLen, resp.StatusCode)
	}
	resp.Body.Close()
}

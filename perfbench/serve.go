package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/bench"
	"specrepair/internal/core"
	"specrepair/internal/service"
	"specrepair/internal/telemetry"
)

const (
	// serveRate is the offered load in submissions per second.
	serveRate = 16.0
	// serveRepeat is the share of submissions that repeat an earlier one.
	serveRepeat = 0.25
	// serveLimit is the latency, from scheduled send to done, within which
	// a submission counts toward slo_frac. It sits near the 95th percentile
	// on an unloaded host, the highest percentile with ten or more of a
	// window's 288 submissions beyond it, so slo_frac can move both ways;
	// when the host is slowed, the percentile rises past it.
	serveLimit = 750 * time.Millisecond
	// burstSpecs is the number of specs, evenly spread over the corpus, whose
	// (spec, technique) jobs make up the capacity burst.
	burstSpecs = 16
	// serveWorkers is the service's worker-pool size.
	serveWorkers = 2
	// servePoll is how often the poller lists job snapshots.
	servePoll = 50 * time.Millisecond
	// serveDrainTimeout bounds the wait for accepted jobs after the last send.
	serveDrainTimeout = 120 * time.Second
	// overheadServeSeconds is the window of serve's tracing-overhead pairs.
	overheadServeSeconds = 3.0
)

// serveJob is one (spec, technique) submission: the spec printed to text
// with its AUnit tests.
type serveJob struct {
	label string // "spec|technique", the key of its reference digest
	body  []byte
}

// spreadJobs returns every (spec, technique) job of n specs evenly spread
// over the corpus, technique by technique in table order. A burst posted in
// this order runs ICEBAR, whose jobs take up to seconds, near its start and
// ends on the shorter multi-round jobs, so its window measures the pool's
// throughput rather than the finish time of one straggler.
func spreadJobs(specs []*bench.Spec, n int) ([]serveJob, error) {
	n = min(n, len(specs))
	var out []serveJob
	for _, tech := range core.TechniqueNames {
		for i := 0; i < n; i++ {
			sp := specs[i*len(specs)/n]
			sub := service.Submission{Spec: printer.Module(sp.Faulty), Technique: tech}
			if sp.Tests != nil {
				sub.Tests = sp.Tests.Tests
			}
			body, err := json.Marshal(sub)
			if err != nil {
				return nil, err
			}
			out = append(out, serveJob{label: sp.Name + "|" + tech, body: body})
		}
	}
	return out, nil
}

// arrival is one scheduled submission.
type arrival struct {
	at     time.Duration
	job    serveJob
	repeat int // index of the arrival this one repeats, or -1
}

// serveSchedule draws the seeded arrivals of one window. The window holds
// round(serveRate*seconds) arrivals at the times of a Poisson process
// conditioned on that count (sorted uniform times). Of them, a serveRepeat
// share are exact repeats of an earlier arrival; the rest are every
// (spec, technique) pair of a fixed, evenly spread subset of the corpus, in
// seeded order. The seed thus moves arrival times and order but not the set
// of unique jobs, so windows of different seeds carry the same work.
func serveSchedule(seed int64, specs []*bench.Spec, seconds float64) ([]arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(serveRate * seconds))
	nTech := len(core.TechniqueNames)
	jobs, err := spreadJobs(specs, max(1, int(math.Round(float64(n)*(1-serveRepeat)/float64(nTech)))))
	if err != nil {
		return nil, err
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	n = max(n, len(jobs))

	// Which arrivals repeat: a seeded choice among all but the first.
	isRepeat := make([]bool, n)
	for _, p := range rng.Perm(n - 1)[:n-len(jobs)] {
		isRepeat[p+1] = true
	}
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * seconds
	}
	sort.Float64s(times)

	out := make([]arrival, n)
	next := 0
	for i := range out {
		out[i] = arrival{at: time.Duration(times[i] * float64(time.Second)), repeat: -1}
		if isRepeat[i] {
			r := rng.Intn(i)
			for out[r].repeat >= 0 {
				r = out[r].repeat
			}
			out[i].repeat, out[i].job = r, out[r].job
			continue
		}
		out[i].job = jobs[next]
		next++
	}
	return out, nil
}

// server is a running service on a loopback listener with a temporary
// journal inside the checkout.
type server struct {
	svc  *service.Service
	http *http.Server
	url  string
	dir  string
	done chan struct{}
}

func startServer(reg *telemetry.Registry) (*server, error) {
	dir, err := os.MkdirTemp(scratchDir, "serve-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Options{
		Journal: filepath.Join(dir, "jobs.jsonl"), Workers: serveWorkers, Telemetry: reg,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// stop closes the listener, hard-stops the service and removes the journal.
func (s *server) stop() {
	s.http.Close()
	<-s.done
	s.svc.Close()
	os.RemoveAll(s.dir)
}

// newClient returns an HTTP client restricted to one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// sent is what the load generator observed for one arrival.
type sent struct {
	due, sentAt, answered time.Time
	status                int
	id                    string
	duplicate             bool
}

// loadResult is one serve window as the load generator saw it.
type loadResult struct {
	arrivals  []arrival
	sent      []sent
	snaps     map[string]service.Snapshot
	stats     service.Stats
	window    time.Duration
	results   map[string]string // job label -> digest of its outcome
	problems  []string
	attempted int
	failed    int
	latencies []float64 // ms, scheduled send to done, per successful arrival
	missed    int       // arrivals refused, failed or never done
	lagMax    time.Duration
}

func (lr *loadResult) problem(format string, args ...any) {
	lr.problems = append(lr.problems, fmt.Sprintf(format, args...))
}

// burst submits every job at once to a fresh service, one POST after
// another on one connection, and waits until all are terminal. Its window
// runs from the first POST to the last job finished, so len(jobs) over it is
// the service's capacity on those jobs.
func burst(jobs []serveJob) (*loadResult, error) {
	srv, err := startServer(telemetry.New())
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	arrivals := make([]arrival, len(jobs))
	for i, j := range jobs {
		arrivals[i] = arrival{job: j, repeat: -1}
	}
	return drive(srv, arrivals)
}

// drive runs one window of open-loop load, a seeded schedule or a burst
// whose arrivals are all due at once: one connection posts on schedule
// while a second polls job snapshots until every accepted job is terminal.
// It then fetches every result and checks the outputs.
func drive(srv *server, arrivals []arrival) (*loadResult, error) {
	lr := &loadResult{arrivals: arrivals, sent: make([]sent, len(arrivals)), snaps: map[string]service.Snapshot{}}
	poster, poller := newClient(), newClient()
	defer poster.CloseIdleConnections()
	defer poller.CloseIdleConnections()

	start := time.Now()
	postDone := make(chan struct{})
	go func() {
		defer close(postDone)
		for i, a := range arrivals {
			due := start.Add(a.at)
			time.Sleep(time.Until(due))
			s := &lr.sent[i]
			s.due, s.sentAt = due, time.Now()
			s.status, s.id, s.duplicate = post(poster, srv.url, a.job.body)
			s.answered = time.Now()
		}
	}()

	// Poll until the schedule is sent and every accepted job is terminal.
	deadline := start.Add(time.Duration(arrivals[len(arrivals)-1].at) + serveDrainTimeout)
	posted := false
	for {
		time.Sleep(servePoll)
		if !posted {
			select {
			case <-postDone:
				posted = true
			default:
			}
		}
		snaps, err := listJobs(poller, srv.url)
		if err != nil {
			<-postDone
			return nil, err
		}
		pending := 0
		for _, s := range snaps {
			lr.snaps[s.ID] = s
			if !s.State.Terminal() {
				pending++
			}
		}
		if posted && pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			lr.problem("serve: %d jobs still pending %v after the last send", pending, serveDrainTimeout)
			break
		}
	}
	<-postDone
	// The window closes when the last job finished, by the service's clock.
	end := start
	for _, s := range lr.snaps {
		if s.FinishedAt != nil && s.FinishedAt.After(end) {
			end = *s.FinishedAt
		}
	}
	for _, s := range lr.sent {
		if s.answered.After(end) {
			end = s.answered
		}
	}
	lr.window = end.Sub(start)
	stats, err := getStats(poller, srv.url)
	if err != nil {
		return nil, err
	}
	lr.stats = stats
	if err := lr.check(poller, srv.url); err != nil {
		return nil, err
	}
	return lr, nil
}

// check derives latencies and verifies the outputs: every accepted job is
// terminal and done, and every repeat aliases its original's job ID. It
// records each job's outcome digest (state, repaired, printed result) by
// job label.
func (lr *loadResult) check(c *http.Client, url string) error {
	firstID := map[string]string{} // job label -> job ID
	for i, a := range lr.arrivals {
		s := lr.sent[i]
		lr.attempted++
		if lag := s.sentAt.Sub(s.due); lag > lr.lagMax {
			lr.lagMax = lag
		}
		if s.status != http.StatusAccepted && s.status != http.StatusOK {
			lr.failed++
			lr.missed++
			lr.problem("serve: arrival %d answered HTTP %d", i, s.status)
			continue
		}
		key := a.job.label
		if orig, seen := firstID[key]; seen {
			if !s.duplicate || s.id != orig {
				lr.failed++
				lr.problem("serve: arrival %d (repeat of %d) got job %s duplicate=%v, want alias of %s", i, a.repeat, s.id, s.duplicate, orig)
			}
		} else {
			firstID[key] = s.id
			if s.duplicate {
				lr.failed++
				lr.problem("serve: first submission %d answered as a duplicate", i)
			}
		}
		snap, ok := lr.snaps[s.id]
		switch {
		case !ok || !snap.State.Terminal():
			lr.failed++
			lr.missed++
			lr.problem("serve: job %s never reached a terminal state", s.id)
			continue
		case snap.State != service.StateDone:
			lr.failed++
			lr.missed++
			lr.problem("serve: job %s %s: %s", s.id, snap.State, snap.Error)
			continue
		}
		end := s.answered
		if snap.FinishedAt != nil && snap.FinishedAt.After(end) {
			end = *snap.FinishedAt
		}
		lr.latencies = append(lr.latencies, float64(end.Sub(s.due).Nanoseconds())/1e6)
	}

	lr.results = map[string]string{}
	for label, id := range firstID {
		snap, ok := lr.snaps[id]
		if !ok {
			continue
		}
		text := ""
		if snap.State == service.StateDone && snap.Repaired {
			var err error
			if text, err = getResult(c, url, id); err != nil {
				return err
			}
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s %v\n%s", snap.State, snap.Repaired, text)))
		lr.results[label] = hex.EncodeToString(sum[:8])
	}
	return nil
}

func post(c *http.Client, url string, body []byte) (status int, id string, dup bool) {
	resp, err := c.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", false
	}
	defer resp.Body.Close()
	var sr struct {
		ID        string `json:"id"`
		Duplicate bool   `json:"duplicate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return resp.StatusCode, "", false
	}
	return resp.StatusCode, sr.ID, sr.Duplicate
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func listJobs(c *http.Client, url string) ([]service.Snapshot, error) {
	var snaps []service.Snapshot
	return snaps, getJSON(c, url+"/jobs", &snaps)
}

func getStats(c *http.Client, url string) (service.Stats, error) {
	var st service.Stats
	return st, getJSON(c, url+"/stats", &st)
}

func getResult(c *http.Client, url, id string) (string, error) {
	resp, err := c.Get(url + "/jobs/" + id + "/result")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("result of %s: HTTP %d: %s", id, resp.StatusCode, b)
	}
	return string(b), nil
}

// serveInput is serve's set-up: the corpus, the schedule, the capacity
// burst's jobs and a running service.
type serveInput struct {
	specs    []*bench.Spec
	arrivals []arrival
	burst    []serveJob
	srv      *server
	reg      *telemetry.Registry
}

func serveSetup(seed int64, seconds float64, sink telemetry.SpanSink) (*serveInput, error) {
	specs, err := generateCorpus(studyScale)
	if err != nil {
		return nil, err
	}
	arrivals, err := serveSchedule(seed, specs, seconds)
	if err != nil {
		return nil, err
	}
	if len(arrivals) == 0 {
		return nil, errors.New("serve: the window holds no arrivals")
	}
	jobs, err := spreadJobs(specs, burstSpecs)
	if err != nil {
		return nil, err
	}
	reg := telemetry.New()
	if sink != nil {
		reg.SetSink(sink)
	}
	srv, err := startServer(reg)
	if err != nil {
		return nil, err
	}
	return &serveInput{specs: specs, arrivals: arrivals, burst: jobs, srv: srv, reg: reg}, nil
}

// checkServe folds a window's checks into the report: each job's outcome
// must equal the reference of its (spec, technique), and a job that differs
// counts as failed.
func checkServe(r *report, lr *loadResult) {
	r.attempted += lr.attempted
	r.failed += lr.failed
	r.problems = append(r.problems, lr.problems...)
	all, err := loadRefs()
	if err != nil {
		r.problem("serve: %v", err)
		r.failed = r.attempted
		return
	}
	for label, got := range lr.results {
		if want, ok := all["serve"][label]; !ok || got != want {
			r.problem("serve: job %s outcome %s, want %q", label, got, want)
			r.failed++
		}
	}
}

// runServe drives the open-loop window, which gives slo_frac, then the
// capacity burst on a fresh service, which gives the throughput figures.
func runServe(seed int64, seconds float64, r *report) error {
	in, setups, err := timeSetup(
		func() (*serveInput, error) { return serveSetup(seed, seconds, nil) },
		func(in *serveInput) { in.srv.stop() })
	if err != nil {
		return err
	}
	lr, err := drive(in.srv, in.arrivals)
	in.srv.stop()
	if err != nil {
		return err
	}
	checkServe(r, lr)
	b, err := burst(in.burst)
	if err != nil {
		return err
	}
	checkServe(r, b)
	done := len(b.latencies)
	r.set("setup_s", "s", median(setups), len(setups))
	r.set("specs_per_min", "specs/min", float64(done)/float64(len(core.TechniqueNames))/b.window.Minutes(), done)
	r.set("verdicts_per_s", "1/s", float64(done)/b.window.Seconds(), done)
	r.set("slo_frac", "fraction", fracWithin(lr.latencies, float64(serveLimit.Milliseconds()), lr.missed), lr.attempted)
	r.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	return nil
}

func traceServe(seed int64, seconds float64, r *report) error {
	in, err := serveSetup(seed, seconds, nil)
	if err != nil {
		return err
	}
	var lr *loadResult
	err = memDelta(r, func() error {
		var err error
		lr, err = drive(in.srv, in.arrivals)
		return err
	})
	in.srv.stop()
	if err != nil {
		return err
	}
	checkServe(r, lr)
	counterMetrics(r, lr.stats.Cache, in.reg)
	serviceMetrics(r, lr)
	latencyMetrics(r, lr.latencies)

	sink := &spanSink{}
	tin, err := serveSetup(seed, seconds, sink)
	if err != nil {
		return err
	}
	err = profileInto(r, func() error {
		tlr, err := drive(tin.srv, tin.arrivals)
		if err == nil {
			checkServe(r, tlr)
		}
		return err
	})
	tin.srv.stop()
	if err != nil {
		return err
	}
	setSpanMetrics(r, sink)
	if err := replayLayers(r, seed, in.specs); err != nil {
		return err
	}
	return overheadPairs(r, func(traced bool) error {
		var sink telemetry.SpanSink
		if traced {
			sink = &spanSink{}
		}
		oin, err := serveSetup(seed, overheadServeSeconds, sink)
		if err != nil {
			return err
		}
		defer oin.srv.stop()
		_, err = drive(oin.srv, oin.arrivals)
		return err
	})
}

// serviceMetrics reports the service-layer figures of one window: queue
// wait and run time per job from the snapshots, submit round trips and
// generator lag from the load generator, and the service's own counters.
func serviceMetrics(r *report, lr *loadResult) {
	var wait, run, submit []float64
	var busy time.Duration
	for _, s := range lr.snaps {
		if s.StartedAt == nil || s.FinishedAt == nil {
			continue
		}
		wait = append(wait, float64(s.StartedAt.Sub(s.CreatedAt).Nanoseconds())/1e6)
		d := s.FinishedAt.Sub(*s.StartedAt)
		run = append(run, float64(d.Nanoseconds())/1e6)
		busy += d
	}
	for _, s := range lr.sent {
		if !s.answered.IsZero() {
			submit = append(submit, float64(s.answered.Sub(s.sentAt).Nanoseconds())/1e6)
		}
	}
	r.set("service.queue_wait_ms_p50", "ms", percentile(wait, 50), len(wait))
	r.set("service.queue_wait_ms_p95", "ms", percentile(wait, 95), len(wait))
	r.set("service.run_ms_p50", "ms", percentile(run, 50), len(run))
	r.set("service.run_ms_p95", "ms", percentile(run, 95), len(run))
	r.set("service.submit_ms_p50", "ms", percentile(submit, 50), len(submit))
	answered := lr.stats.Submitted + lr.stats.Deduped + lr.stats.Rejected
	dedup := 0.0
	if answered > 0 {
		dedup = float64(lr.stats.Deduped) / float64(answered)
	}
	r.set("service.dedup_frac", "fraction", dedup, int(answered))
	r.set("loadgen.lag_ms_max", "ms", float64(lr.lagMax.Nanoseconds())/1e6, len(lr.sent))
	r.set("core.busy_frac", "fraction", busy.Seconds()/(serveWorkers*lr.window.Seconds()), len(run))
}

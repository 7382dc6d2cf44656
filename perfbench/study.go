package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"specrepair/internal/anacache"
	"specrepair/internal/analyzer"
	"specrepair/internal/bench"
	"specrepair/internal/core"
	"specrepair/internal/experiments"
	"specrepair/internal/telemetry"
)

const (
	// studyScale selects the scale-100 slice: 29 specs (A4F 17 + ARepair
	// 12), 348 (technique, spec) jobs.
	studyScale = 100
	// overheadScale is the smaller slice the tracing-overhead pairs run.
	overheadScale = 400
	// studyWorkers is the runner parallelism of study, and the number of
	// single-goroutine workers of shard.
	studyWorkers = 2
	// jobLimitBucket bounds the job wall clock study and shard count toward
	// slo_frac: a job meets it when its duration lands in a power-of-two
	// histogram bucket at or below 27, that is under 2^27 ns (134 ms), which
	// the job-duration histogram counts exactly. About 80% of jobs meet it,
	// so slo_frac can move both ways.
	jobLimitBucket = 27
	// overheadPairCount is the number of traced/untraced pairs behind
	// telemetry.trace_overhead_pct.
	overheadPairCount = 3
)

// generateCorpus is the study's set-up: both suites generated and validated
// through a fresh analyzer and analysis cache, as RunStudyContext does.
func generateCorpus(scale int) ([]*bench.Spec, error) {
	gen := bench.NewGenerator(analyzer.New(analyzer.Options{Cache: anacache.New(0)}))
	gen.Scale = scale
	a4f, ar, err := gen.Both()
	if err != nil {
		return nil, err
	}
	return append(append([]*bench.Spec(nil), a4f.Specs...), ar.Specs...), nil
}

// studyDigest fingerprints the paper artifacts a study renders, Summary
// through Table II, without the cache and telemetry lines that legitimately
// differ between runs.
func studyDigest(s *experiments.Study) string {
	text := strings.Join([]string{s.Summary(), s.TableI(), s.RenderFigure2(), s.RenderFigure3(), s.RenderTableII()}, "\n")
	var kept []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "analysis cache:") {
			kept = append(kept, line)
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(kept, "\n")))
	return hex.EncodeToString(sum[:])
}

// studyPass is one measured run of the study pipeline.
type studyPass struct {
	study  *experiments.Study
	window time.Duration // evaluation only; set-up excluded
	regs   []*telemetry.Registry
	cache  anacache.Stats
}

// jobs counts the pass's (technique, spec) jobs and the errored ones.
func (p *studyPass) jobs() (attempted, errored int) {
	for _, eval := range []*core.Evaluation{p.study.A4F, p.study.ARepair} {
		if eval == nil {
			continue
		}
		for _, bySpec := range eval.Results {
			for _, res := range bySpec {
				attempted++
				if res.Err != nil {
					errored++
				}
			}
		}
	}
	return attempted, errored
}

// runStudyPass runs experiments.RunStudyContext with the default cache and
// incremental settings; seed is the simulated-LLM seed.
func runStudyPass(seed int64, scale int, sink telemetry.SpanSink) (*studyPass, error) {
	reg := telemetry.New()
	if sink != nil {
		reg.SetSink(sink)
	}
	start := time.Now()
	st, err := experiments.RunStudyContext(context.Background(), experiments.Config{
		Seed: seed, Scale: scale, Workers: studyWorkers, Telemetry: reg,
	})
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	var gen time.Duration
	for _, ph := range st.Phases {
		if ph.Name == "generate" {
			gen += ph.Duration
		}
	}
	return &studyPass{study: st, window: wall - gen, regs: []*telemetry.Registry{reg}, cache: st.CacheStats()}, nil
}

// runShardPass runs experiments.RunCoordinator on loopback with
// studyWorkers in-process RunWorker loops of one runner goroutine each. The
// window runs from the coordinator listening to the study being assembled;
// the coordinator's drain-grace linger is disabled, and the workers are
// stopped once the coordinator returns.
func runShardPass(seed int64, scale int, sinks []telemetry.SpanSink) (*studyPass, error) {
	regs := make([]*telemetry.Registry, studyWorkers+1)
	for i := range regs {
		regs[i] = telemetry.New()
		// Distinct span-ID spaces keep the registries' spans apart.
		regs[i].SeedSpanIDs(uint64(i+1) << 48)
		if sinks != nil {
			regs[i].SetSink(sinks[i])
		}
	}
	coordCtx, cancelCoord := context.WithCancel(context.Background())
	defer cancelCoord()
	workCtx, cancelWork := context.WithCancel(context.Background())
	defer cancelWork()

	type coordResult struct {
		study *experiments.Study
		err   error
	}
	var listenAt time.Time
	listened := make(chan string, 1)
	done := make(chan coordResult, 1)
	go func() {
		st, err := experiments.RunCoordinator(coordCtx, experiments.Config{
			Seed: seed, Scale: scale, Workers: studyWorkers, Telemetry: regs[0],
		}, experiments.CoordinatorOptions{
			Addr:       "127.0.0.1:0",
			DrainGrace: -1,
			OnListen: func(addr string) {
				listenAt = time.Now()
				listened <- addr
			},
		})
		done <- coordResult{st, err}
	}()
	var addr string
	select {
	case addr = <-listened:
	case res := <-done:
		return nil, fmt.Errorf("coordinator exited before listening: %v", res.err)
	}

	var wg sync.WaitGroup
	workerErrs := make([]error, studyWorkers)
	for i := 0; i < studyWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = experiments.RunWorker(workCtx, experiments.Config{
				Seed: seed, Scale: scale, Workers: 1, Telemetry: regs[i+1],
			}, experiments.WorkerOptions{Coordinator: "http://" + addr, ID: fmt.Sprintf("w%d", i)})
		}(i)
	}
	// Workers return nil once the coordinator reports the study done, which
	// can precede the end of its assembly. Should every worker instead give
	// up with an error, the coordinator would wait forever.
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	var res coordResult
	select {
	case res = <-done:
	case <-workersDone:
		if err := errors.Join(workerErrs...); err != nil {
			cancelCoord()
		}
		res = <-done
	}
	end := time.Now()
	cancelWork()
	<-workersDone
	if res.err != nil {
		return nil, fmt.Errorf("coordinator: %w (workers: %v)", res.err, errors.Join(workerErrs...))
	}
	return &studyPass{
		study: res.study, window: end.Sub(listenAt),
		regs: regs, cache: res.study.CacheStats(),
	}, nil
}

type passFunc func(seed int64, scale int, traced bool) (*studyPass, []*spanSink, error)

func studyRunner(seed int64, scale int, traced bool) (*studyPass, []*spanSink, error) {
	var sinks []*spanSink
	var sink telemetry.SpanSink
	if traced {
		s := &spanSink{}
		sinks, sink = []*spanSink{s}, s
	}
	p, err := runStudyPass(seed, scale, sink)
	return p, sinks, err
}

func shardRunner(seed int64, scale int, traced bool) (*studyPass, []*spanSink, error) {
	var sinks []*spanSink
	var tsinks []telemetry.SpanSink
	if traced {
		for i := 0; i <= studyWorkers; i++ {
			s := &spanSink{}
			sinks = append(sinks, s)
			tsinks = append(tsinks, s)
		}
	}
	p, err := runShardPass(seed, scale, tsinks)
	return p, sinks, err
}

// specLatencies returns, per spec, the time its twelve jobs took in ms.
func specLatencies(p *studyPass) []float64 {
	specNs := map[string]int64{}
	for _, reg := range p.regs {
		for _, ss := range reg.Specs() {
			specNs[ss.Spec] += ss.DurationNs
		}
	}
	out := make([]float64, 0, len(specNs))
	for _, ns := range specNs {
		out = append(out, float64(ns)/1e6)
	}
	return out
}

// checkPass adds the pass's jobs to the attempted and failed counts; on a
// digest mismatch every job of the pass counts as failed. It returns the
// number of jobs that errored.
func checkPass(r *report, name string, seed int64, p *studyPass) int {
	attempted, errored := p.jobs()
	r.attempted += attempted
	want, ok := reference("study", strconv.FormatInt(seed, 10))
	got := studyDigest(p.study)
	switch {
	case !ok:
		r.problem("%s: no reference digest for seed %d", name, seed)
		r.failed += attempted
	case got != want:
		r.problem("%s: artifact digest %.16s, want %.16s", name, got, want)
		r.failed += attempted
	default:
		r.failed += errored
	}
	return errored
}

func runStudy(seed int64, seconds float64, r *report) error {
	return runStudyLike("study", studyRunner, studyStart, seed, seconds, r)
}

func runShard(seed int64, seconds float64, r *report) error {
	return runStudyLike("shard", shardRunner, shardStart, seed, seconds, r)
}

// studyStart is study's set-up: the corpus generation RunStudyContext does
// before it evaluates.
func studyStart(int64) error {
	_, err := generateCorpus(studyScale)
	return err
}

// shardStart is shard's set-up: a coordinator started until it listens
// (corpus generation included), then cancelled.
func shardStart(seed int64) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	listened := false
	_, err := experiments.RunCoordinator(ctx, experiments.Config{
		Seed: seed, Scale: studyScale, Workers: studyWorkers, Telemetry: telemetry.New(),
	}, experiments.CoordinatorOptions{
		Addr:       "127.0.0.1:0",
		DrainGrace: -1,
		OnListen: func(string) {
			listened = true
			cancel()
		},
	})
	if !listened {
		return fmt.Errorf("coordinator exited before listening: %v", err)
	}
	return nil
}

// morePasses reports whether to run another whole pass: always a first one,
// then another while it brings the total window closer to seconds.
func morePasses(done int, window, last time.Duration, seconds float64) bool {
	return done == 0 || (window+last/2).Seconds() < seconds
}

// runStudyLike times start (see timeSetup), measures the whole passes
// whose windows add up closest to seconds, and reports the end-to-end
// metrics.
func runStudyLike(name string, pass passFunc, start func(seed int64) error, seed int64, seconds float64, r *report) error {
	_, setups, err := timeSetup(func() (struct{}, error) { return struct{}{}, start(seed) }, nil)
	if err != nil {
		return err
	}
	var window time.Duration
	var jobsTotal, jobsWithin int64
	errored, specsDone, verdicts := 0, 0, 0
	passes := 0
	var last time.Duration
	for morePasses(passes, window, last, seconds) {
		p, _, err := pass(seed, studyScale, false)
		if err != nil {
			return err
		}
		passes++
		window += p.window
		last = p.window
		attempted, _ := p.jobs()
		bad := checkPass(r, name, seed, p)
		errored += bad
		verdicts += attempted - bad
		specsDone += len(p.study.A4F.Suite.Specs) + len(p.study.ARepair.Suite.Specs)
		for _, reg := range p.regs {
			for _, ts := range reg.Techniques() {
				jobsTotal += ts.Jobs
				for b := 0; b <= jobLimitBucket; b++ {
					jobsWithin += ts.Duration.Buckets[b]
				}
			}
		}
	}
	r.set("setup_s", "s", median(setups), len(setups))
	r.set("specs_per_min", "specs/min", float64(specsDone)/window.Minutes(), passes)
	// One verdict per finished (technique, spec) job: a fixed amount of work
	// per pass, whatever the techniques do inside a job.
	r.set("verdicts_per_s", "1/s", float64(verdicts)/window.Seconds(), verdicts)
	// Errored jobs count as misses.
	slo := 0.0
	if jobsTotal > 0 {
		slo = float64(max(jobsWithin-int64(errored), 0)) / float64(jobsTotal)
	}
	r.set("slo_frac", "fraction", slo, int(jobsTotal))
	r.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	return nil
}

func traceStudy(seed int64, seconds float64, r *report) error {
	return traceStudyLike("study", studyRunner, seed, r)
}

func traceShard(seed int64, seconds float64, r *report) error {
	return traceStudyLike("shard", shardRunner, seed, r)
}

// traceStudyLike gathers the per-layer metrics of study or shard: counters
// after an untraced pass, spans and the CPU profile of a traced pass,
// replays of the corpus, and tracing overhead on the smaller slice.
func traceStudyLike(name string, pass passFunc, seed int64, r *report) error {
	var p *studyPass
	if err := memDelta(r, func() error {
		var err error
		p, _, err = pass(seed, studyScale, false)
		return err
	}); err != nil {
		return err
	}
	checkPass(r, name, seed, p)
	counterMetrics(r, p.cache, p.regs...)
	latencyMetrics(r, specLatencies(p))
	r.set("core.busy_frac", "fraction", float64(jobNs(p.regs...))/(studyWorkers*float64(p.window.Nanoseconds())), 1)

	var sinks []*spanSink
	if err := profileInto(r, func() error {
		tp, s, err := pass(seed, studyScale, true)
		if err == nil {
			checkPass(r, name, seed, tp)
			sinks = s
		}
		return err
	}); err != nil {
		return err
	}
	setSpanMetrics(r, sinks...)

	specs, err := generateCorpus(studyScale)
	if err != nil {
		return err
	}
	if err := replayLayers(r, seed, specs); err != nil {
		return err
	}
	return overheadPairs(r, func(traced bool) error {
		_, _, err := pass(seed, overheadScale, traced)
		return err
	})
}

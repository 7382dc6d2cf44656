package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"specrepair/internal/bench"
	"specrepair/internal/core"
	"specrepair/internal/shard"
	"specrepair/internal/telemetry"
)

// CoordinatorOptions configures the distribution side of a sharded study.
type CoordinatorOptions struct {
	// Addr is the listen address for the lease protocol (":0" picks a free
	// port; tests read it back via OnListen).
	Addr string
	// LeaseTTL is how long a worker may go silent before its lease is
	// reaped and the range re-dispatched (0 = 30s).
	LeaseTTL time.Duration
	// ChunkSize caps the job-range one lease grants (0 = 16).
	ChunkSize int
	// OnListen, when non-nil, is called with the bound address once the
	// coordinator is serving.
	OnListen func(addr string)
	// DrainGrace is how long the coordinator keeps answering "study done"
	// after completion before shutting its server down, so idle workers
	// polling for work exit cleanly instead of hitting a dead socket
	// (0 = 2s; negative disables the linger).
	DrainGrace time.Duration
}

// WorkerOptions configures a sharded-study worker process.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://127.0.0.1:7070".
	Coordinator string
	// ID names this worker in leases and logs.
	ID string
}

func factoryNames(fs []core.Factory) []string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}

// RunCoordinator runs the coordinator side of a sharded study: it generates
// the corpus, enumerates the canonical job list, serves leases to worker
// processes until every job has an accepted completion, and then assembles
// the Study by replaying the completion journal through the ordinary
// runner resume path. Because every record enters the same append-only
// journal a single-process run would have written, the assembled artifacts
// are byte-identical regardless of how many workers ran, which ranges they
// leased, or whether stragglers were re-dispatched.
//
// The coordinator evaluates no jobs itself — run a worker process (or
// several) against the printed address.
func RunCoordinator(ctx context.Context, cfg Config, opt CoordinatorOptions) (*Study, error) {
	run := startStudy(cfg)
	run.root.SetAttr("role", "coordinator")
	defer run.root.End()
	study, factories := run.Study, run.factories
	progress := cfg.Progress

	// Without -checkpoint the journal is memory-only: completions still flow
	// through the same journal-and-replay path, they just don't survive a
	// coordinator crash. It is opened before generation, as in the
	// single-process study, so a refused checkpoint fails fast.
	journal := core.NewMemoryCheckpoint()
	if cfg.CheckpointPath != "" {
		var err error
		if journal, err = core.OpenCheckpoint(cfg.CheckpointPath, cfg.Resume); err != nil {
			return nil, err
		}
		defer journal.Close()
		if cfg.Resume && progress != nil {
			progress(fmt.Sprintf("resuming: %d jobs already journaled", journal.Len()))
		}
	}

	if progress != nil {
		progress("generating benchmark corpora")
	}
	a4f, ar, err := run.generateCorpus(ctx, cfg.Scale)
	if err != nil {
		return nil, err
	}

	techniques := factoryNames(factories)
	digest := shard.StudyDigest(cfg.Seed, techniques, a4f, ar)
	jobs := shard.JobList([]*bench.Suite{a4f, ar}, techniques)

	board := shard.NewBoard(jobs, shard.BoardOptions{
		TTL:       opt.LeaseTTL,
		ChunkSize: opt.ChunkSize,
		Journal:   journal,
		Telemetry: study.Telemetry,
	})
	coord, err := shard.Serve(opt.Addr, digest, board)
	if err != nil {
		return nil, err
	}
	// The server stays up through assembly so workers leasing after the last
	// completion get a clean "study done" answer instead of a dead socket.
	defer coord.Close()
	if opt.OnListen != nil {
		opt.OnListen(coord.Addr())
	}
	if progress != nil {
		progress(fmt.Sprintf("coordinating %d jobs on %s (digest %.12s…)", len(jobs), coord.Addr(), digest))
		progress(fmt.Sprintf("start workers with: experiments -worker http://%s", coord.Addr()))
	}

	shardSpan := run.root.Child("phase")
	shardSpan.SetAttr("name", "shard")
	phaseStart := time.Now()
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
wait:
	for {
		select {
		case <-board.Done():
			break wait
		case <-ctx.Done():
			shardSpan.End()
			st := board.Status()
			if cfg.CheckpointPath != "" && progress != nil {
				progress(fmt.Sprintf("interrupted with %d/%d jobs journaled; resume with -checkpoint %s -resume",
					st.Done, st.Total, cfg.CheckpointPath))
			}
			return study, ctx.Err()
		case <-ticker.C:
			if progress != nil {
				st := board.Status()
				progress(fmt.Sprintf("sharded progress: %d/%d done, %d leased, %d live leases",
					st.Done, st.Total, st.Leased, st.Leases))
			}
		}
	}
	shardSpan.End()
	study.AddPhase("shard", time.Since(phaseStart))
	if st := board.Status(); st.Mismatches > 0 && progress != nil {
		progress(fmt.Sprintf("WARNING: %d duplicate completions disagreed with the journaled record (determinism violation)", st.Mismatches))
	}

	// Assembly: run the ordinary evaluation with the fully-populated journal
	// as checkpoint. Every job is served from the resume pass — nothing is
	// re-evaluated — and the Study comes out exactly as a single-process run
	// (or a resumed run) would have produced it.
	runner := &core.Runner{
		Workers:    cfg.Workers,
		Cache:      study.Cache,
		Telemetry:  study.Telemetry,
		Checkpoint: journal,
	}
	phaseStart = time.Now()
	asmSpan := run.root.Child("phase")
	asmSpan.SetAttr("name", "assemble")
	asmCtx := telemetry.ContextWithSpan(ctx, asmSpan)
	a4fEval, err := runner.EvaluateContext(asmCtx, a4f, factories)
	if err != nil {
		asmSpan.End()
		return study, err
	}
	arEval, err := runner.EvaluateContext(asmCtx, ar, factories)
	asmSpan.End()
	if err != nil {
		return study, err
	}
	study.AddPhase("assemble", time.Since(phaseStart))
	study.A4F, study.ARepair = a4fEval, arEval

	// Linger so workers polling for work pick up the "study done" answer
	// before the deferred Close tears the server down. Workers that posted
	// the final completion already learned via the completion ack.
	grace := opt.DrainGrace
	if grace == 0 {
		grace = 2 * time.Second
	}
	if grace > 0 {
		select {
		case <-time.After(grace):
		case <-ctx.Done():
		}
	}
	return study, nil
}

// RunWorker runs the worker side of a sharded study: it regenerates the
// corpus locally from the same deterministic generator, computes the study
// digest (the coordinator rejects it on mismatch), and then leases
// job-ranges, evaluates them on the ordinary runner worker pool, and posts
// each completion back until the coordinator reports the study done.
func RunWorker(ctx context.Context, cfg Config, opt WorkerOptions) error {
	if opt.ID == "" {
		opt.ID = "worker"
	}
	run := startStudy(cfg)
	run.root.SetAttr("role", "worker")
	run.root.SetAttr("worker", opt.ID)
	defer run.root.End()
	factories := run.factories
	progress := cfg.Progress

	if progress != nil {
		progress(fmt.Sprintf("worker %s: generating benchmark corpora", opt.ID))
	}
	a4f, ar, err := run.generateCorpus(ctx, cfg.Scale)
	if err != nil {
		return err
	}
	techniques := factoryNames(factories)
	suites := []*bench.Suite{a4f, ar}
	digest := shard.StudyDigest(cfg.Seed, techniques, a4f, ar)
	jobs := shard.JobList(suites, techniques)

	runner := &core.Runner{
		Workers:   cfg.Workers,
		Cache:     run.Cache,
		Telemetry: run.Telemetry,
		Timeout:   cfg.Timeout,
	}

	w := &shard.Worker{
		BaseURL: opt.Coordinator,
		ID:      opt.ID,
		Digest:  digest,
		Jobs:    jobs,
		Log: func(format string, args ...any) {
			if progress != nil {
				progress(fmt.Sprintf(format, args...))
			}
		},
		Run: func(runCtx context.Context, start int, refs []core.JobRef, emit func(int, *core.CheckpointRecord) error) error {
			index := make(map[core.JobRef]int, len(refs))
			for i, ref := range refs {
				index[ref] = start + i
			}
			runCtx = telemetry.ContextWithSpan(runCtx, run.root)
			var emitErr error
			err := runner.EvaluateJobs(runCtx, suites, factories, refs, func(suite string, res *core.Result) {
				// An abandoned job (lease revoked, worker shutting down) is
				// never posted; the coordinator re-dispatches it.
				if emitErr != nil || res.Abandoned {
					return
				}
				ref := core.JobRef{Suite: suite, Technique: res.Technique, Spec: res.Spec.Name}
				if err := emit(index[ref], core.RecordOf(suite, res.Spec.Name, res)); err != nil && !errors.Is(err, context.Canceled) {
					emitErr = fmt.Errorf("posting completion for %s/%s/%s: %w", suite, res.Technique, res.Spec.Name, err)
				}
			})
			if err != nil {
				return err
			}
			return emitErr
		},
	}
	return w.Loop(ctx)
}

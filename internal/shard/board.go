package shard

import (
	"fmt"
	"sync"
	"time"

	"specrepair/internal/core"
	"specrepair/internal/telemetry"
)

// BoardOptions configures lease bookkeeping.
type BoardOptions struct {
	// TTL is how long a lease stays valid without a heartbeat; an expired
	// lease is reaped and its uncompleted jobs go back to the pending pool.
	// Defaults to 30s.
	TTL time.Duration
	// ChunkSize caps how many jobs one lease grants. Defaults to 16.
	ChunkSize int
	// Journal receives every accepted completion (required).
	Journal *core.Checkpoint
	// Telemetry, when non-nil, receives the shard.* coordinator counters.
	Telemetry *telemetry.Registry
	// Now is the clock (tests inject a fake one; defaults to time.Now).
	Now func() time.Time
}

type jobState uint8

const (
	statePending jobState = iota
	stateLeased
	stateDone
)

// lease is one outstanding grant of a contiguous job-range.
type lease struct {
	id      int64
	worker  string
	start   int
	count   int
	expires time.Time
	// stolen marks that a duplicate grant of this lease's uncompleted
	// remainder is already outstanding, so the range is not re-stolen while
	// both grants are live.
	stolen bool
	// isSteal marks a lease that was itself created as a duplicate grant.
	// Such a lease is never a steal victim, so a job has at most two live
	// grants — lease expiry, not cascading theft, covers the case where the
	// thief also stalls.
	isSteal bool
}

// remaining returns the lease's not-yet-done indices in order.
func (l *lease) remaining(state []jobState) []int {
	var out []int
	for i := l.start; i < l.start+l.count; i++ {
		if state[i] != stateDone {
			out = append(out, i)
		}
	}
	return out
}

// Board is the coordinator's authoritative view of the job space: which
// jobs are pending, leased, or done, and which leases are live. All methods
// are safe for concurrent use.
type Board struct {
	mu        sync.Mutex
	jobs      []core.JobRef
	state     []jobState
	cover     []int // number of live leases covering each job
	leases    map[int64]*lease
	nextLease int64
	doneCount int
	doneCh    chan struct{}

	ttl     time.Duration
	chunk   int
	journal *core.Checkpoint
	now     func() time.Time

	// mismatches counts duplicate completions whose record differed from
	// the journaled one — a determinism violation worth surfacing loudly.
	mismatches int64

	ctrLeases, ctrExpired, ctrSteals, ctrCompleted, ctrDuplicates, ctrHeartbeats, ctrRejected *telemetry.Counter
}

// NewBoard builds the board over the canonical job list. Jobs already
// present in the journal (a resumed coordinator) are marked done up front
// and never leased.
func NewBoard(jobs []core.JobRef, o BoardOptions) *Board {
	if o.TTL <= 0 {
		o.TTL = 30 * time.Second
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 16
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	b := &Board{
		jobs:    jobs,
		state:   make([]jobState, len(jobs)),
		cover:   make([]int, len(jobs)),
		leases:  map[int64]*lease{},
		doneCh:  make(chan struct{}),
		ttl:     o.TTL,
		chunk:   o.ChunkSize,
		journal: o.Journal,
		now:     o.Now,

		ctrLeases:     o.Telemetry.Counter(telemetry.CtrShardLeases),
		ctrExpired:    o.Telemetry.Counter(telemetry.CtrShardExpired),
		ctrSteals:     o.Telemetry.Counter(telemetry.CtrShardSteals),
		ctrCompleted:  o.Telemetry.Counter(telemetry.CtrShardCompleted),
		ctrDuplicates: o.Telemetry.Counter(telemetry.CtrShardDuplicates),
		ctrHeartbeats: o.Telemetry.Counter(telemetry.CtrShardHeartbeats),
		ctrRejected:   o.Telemetry.Counter(telemetry.CtrShardRejected),
	}
	for i, j := range b.jobs {
		if b.journal != nil && b.journal.Lookup(j.Suite, j.Technique, j.Spec) != nil {
			b.state[i] = stateDone
			b.doneCount++
		}
	}
	if b.doneCount == len(b.jobs) {
		close(b.doneCh)
	}
	return b
}

// Done is closed once every job has an accepted completion.
func (b *Board) Done() <-chan struct{} { return b.doneCh }

// AllDone reports whether every job has an accepted completion.
func (b *Board) AllDone() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doneCount == len(b.jobs)
}

// reapExpired returns every job of an overdue lease to the pending pool
// (unless another live lease still covers it). Caller holds b.mu.
func (b *Board) reapExpired() {
	now := b.now()
	for id, l := range b.leases {
		if len(l.remaining(b.state)) == 0 {
			// Every job of the lease completed — the lease is spent, not
			// expired; just release it.
			delete(b.leases, id)
			continue
		}
		if now.Before(l.expires) {
			continue
		}
		delete(b.leases, id)
		b.ctrExpired.Inc()
		for i := l.start; i < l.start+l.count; i++ {
			if b.state[i] == stateDone {
				continue
			}
			b.cover[i]--
			if b.cover[i] <= 0 {
				b.cover[i] = 0
				b.state[i] = statePending
			}
		}
	}
}

// Lease grants a contiguous range of jobs to the worker. It prefers fresh
// pending ranges; when none exist it steals the uncompleted remainder of
// the straggler lease closest to expiry (at most one duplicate grant per
// lease at a time). A grant covers at most the chunk size. The returned
// count is 0 when no work is available: done reports whether the whole
// study has completed, and the worker should retry later otherwise.
func (b *Board) Lease(worker string) (id int64, start, count int, done bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reapExpired()
	if b.doneCount == len(b.jobs) {
		return 0, 0, 0, true
	}
	grant := func(start, count int, stolen bool) (int64, int, int, bool) {
		b.nextLease++
		l := &lease{
			id:      b.nextLease,
			worker:  worker,
			start:   start,
			count:   count,
			expires: b.now().Add(b.ttl),
			isSteal: stolen,
		}
		b.leases[l.id] = l
		for i := start; i < start+count; i++ {
			if b.state[i] != stateDone {
				b.state[i] = stateLeased
				b.cover[i]++
			}
		}
		b.ctrLeases.Inc()
		if stolen {
			b.ctrSteals.Inc()
		}
		return l.id, start, count, false
	}

	// Fresh work: the lowest-indexed contiguous pending run.
	for i := 0; i < len(b.state); i++ {
		if b.state[i] != statePending {
			continue
		}
		n := 0
		for i+n < len(b.state) && n < b.chunk && b.state[i+n] == statePending {
			n++
		}
		return grant(i, n, false)
	}

	// No fresh work: steal the remainder of the straggler lease closest to
	// expiry. The victim keeps running — whichever grant completes a job
	// first wins; the duplicate is dropped.
	var victim *lease
	for _, l := range b.leases {
		if l.stolen || l.isSteal || len(l.remaining(b.state)) == 0 {
			continue
		}
		if victim == nil || l.expires.Before(victim.expires) ||
			(l.expires.Equal(victim.expires) && l.id < victim.id) {
			victim = l
		}
	}
	if victim != nil {
		rem := victim.remaining(b.state)
		start := rem[0]
		n := 1
		for n < len(rem) && n < b.chunk && rem[n] == start+n {
			n++
		}
		victim.stolen = true
		return grant(start, n, true)
	}
	return 0, 0, 0, false
}

// Heartbeat extends a lease. It reports false when the lease is unknown —
// expired and reaped — in which case the worker should abandon the range
// (its jobs have gone back to the pool).
func (b *Board) Heartbeat(id int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reapExpired()
	b.ctrHeartbeats.Inc()
	l, ok := b.leases[id]
	if !ok {
		return false
	}
	l.expires = b.now().Add(b.ttl)
	return true
}

// Complete accepts one job completion. Resolution is first-wins and
// therefore deterministic in artifact terms: the first record journaled for
// a job is final, and every later completion of the same job — from a
// re-dispatched straggler range or a worker that outlived its lease — is
// dropped. A duplicate whose record differs from the journaled one is
// counted as a mismatch (jobs are deterministic, so a differing duplicate
// means a worker is broken). Completions are accepted even when the posting
// lease has already been reaped: the work is valid, first-wins still holds.
func (b *Board) Complete(leaseID int64, index int, rec *core.CheckpointRecord) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if index < 0 || index >= len(b.jobs) {
		return fmt.Errorf("completion index %d out of range [0,%d)", index, len(b.jobs))
	}
	want := b.jobs[index]
	if rec.Suite != want.Suite || rec.Technique != want.Technique || rec.Spec != want.Spec {
		return fmt.Errorf("completion for index %d names %s/%s/%s, want %s/%s/%s",
			index, rec.Suite, rec.Technique, rec.Spec, want.Suite, want.Technique, want.Spec)
	}
	if l, ok := b.leases[leaseID]; ok && index >= l.start && index < l.start+l.count {
		if b.cover[index] > 0 {
			b.cover[index]--
		}
	}
	if b.state[index] == stateDone {
		b.ctrDuplicates.Inc()
		if prev := b.journal.Lookup(want.Suite, want.Technique, want.Spec); prev != nil && *prev != *rec {
			b.mismatches++
		}
		return nil
	}
	if err := b.journal.Append(rec); err != nil {
		return fmt.Errorf("journaling completion: %w", err)
	}
	b.state[index] = stateDone
	b.doneCount++
	b.ctrCompleted.Inc()
	if b.doneCount == len(b.jobs) {
		close(b.doneCh)
	}
	return nil
}

// Status is a point-in-time snapshot of the board for monitoring and
// tests.
type Status struct {
	Total      int   `json:"total"`
	Done       int   `json:"done"`
	Pending    int   `json:"pending"`
	Leased     int   `json:"leased"`
	Leases     int   `json:"leases"`
	Mismatches int64 `json:"duplicate_mismatches"`
}

// Status snapshots the board.
func (b *Board) Status() Status {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Status{Total: len(b.jobs), Done: b.doneCount, Leases: len(b.leases), Mismatches: b.mismatches}
	for _, s := range b.state {
		switch s {
		case statePending:
			st.Pending++
		case stateLeased:
			st.Leased++
		}
	}
	return st
}

// RejectWorker counts a worker turned away for a digest mismatch.
func (b *Board) RejectWorker() { b.ctrRejected.Inc() }

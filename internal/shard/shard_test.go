package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"specrepair/internal/core"
)

func testJobs(n int) []core.JobRef {
	jobs := make([]core.JobRef, n)
	for i := range jobs {
		jobs[i] = core.JobRef{Suite: "S", Technique: "T", Spec: fmt.Sprintf("%04d", i)}
	}
	return jobs
}

func recordFor(ref core.JobRef, rep int) *core.CheckpointRecord {
	return &core.CheckpointRecord{
		Suite: ref.Suite, Technique: ref.Technique, Spec: ref.Spec,
		Repaired: rep == 1, REP: rep, TM: 0.5, SM: 0.5,
	}
}

// fakeClock is a manually advanced time source for lease-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBoard(t *testing.T, n int, o BoardOptions) (*Board, *core.Checkpoint) {
	t.Helper()
	if o.Journal == nil {
		o.Journal = core.NewMemoryCheckpoint()
	}
	return NewBoard(testJobs(n), o), o.Journal
}

func TestLeaseGrantsContiguousRanges(t *testing.T) {
	b, _ := newTestBoard(t, 10, BoardOptions{ChunkSize: 4})
	id1, start1, count1, done := b.Lease("w1")
	if done || start1 != 0 || count1 != 4 || id1 == 0 {
		t.Fatalf("first lease = (%d, %d, %d, %v), want (id, 0, 4, false)", id1, start1, count1, done)
	}
	_, start2, count2, _ := b.Lease("w2")
	if start2 != 4 || count2 != 4 {
		t.Fatalf("second lease = [%d,%d), want [4,8)", start2, start2+count2)
	}
	_, start3, count3, _ := b.Lease("w1")
	if start3 != 8 || count3 != 2 {
		t.Fatalf("third lease = [%d,%d), want [8,10)", start3, start3+count3)
	}
}

func TestLeaseExpiryRedispatchesRange(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b, _ := newTestBoard(t, 4, BoardOptions{ChunkSize: 4, TTL: 10 * time.Second, Now: clk.now})

	id1, _, _, _ := b.Lease("w1")
	// Heartbeats keep the lease alive across the TTL boundary.
	clk.advance(8 * time.Second)
	if !b.Heartbeat(id1) {
		t.Fatal("heartbeat on live lease reported revoked")
	}
	clk.advance(8 * time.Second)
	if !b.Heartbeat(id1) {
		t.Fatal("heartbeated lease was reaped inside its extended TTL")
	}
	// Silence past the TTL reaps it: the range goes back to pending and the
	// next lease re-dispatches it as fresh work (not a steal).
	clk.advance(11 * time.Second)
	_, start, count, done := b.Lease("w2")
	if done || start != 0 || count != 4 {
		t.Fatalf("post-expiry lease = [%d,%d) done %v, want [0,4) false", start, start+count, done)
	}
	if b.Heartbeat(id1) {
		t.Fatal("heartbeat on expired lease did not report revoked")
	}
	if st := b.Status(); st.Leases != 1 {
		t.Fatalf("expired lease still live: %+v", st)
	}
}

func TestStealStragglerRemainder(t *testing.T) {
	b, _ := newTestBoard(t, 4, BoardOptions{ChunkSize: 4, TTL: time.Hour})
	jobs := testJobs(4)

	id1, _, _, _ := b.Lease("w1")
	// The straggler finishes jobs 0 and 1; 2 and 3 are still in flight.
	for i := 0; i < 2; i++ {
		if err := b.Complete(id1, i, recordFor(jobs[i], 1)); err != nil {
			t.Fatal(err)
		}
	}
	// An idle worker steals the uncompleted remainder [2,4).
	id2, start, count, done := b.Lease("w2")
	if done || start != 2 || count != 2 {
		t.Fatalf("steal = [%d,%d) done %v, want [2,4) false", start, start+count, done)
	}
	// Duplication is bounded: the victim is marked stolen and the thief's
	// lease is itself never a victim, so a third worker gets nothing.
	if _, _, count, done := b.Lease("w3"); count != 0 || done {
		t.Fatalf("second steal of same range = count %d done %v, want 0 false", count, done)
	}
	// Thief completes job 2, straggler completes job 3: both accepted,
	// study done.
	if err := b.Complete(id2, 2, recordFor(jobs[2], 0)); err != nil {
		t.Fatal(err)
	}
	if err := b.Complete(id1, 3, recordFor(jobs[3], 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Done():
	default:
		t.Fatal("board not done after all jobs completed")
	}
	if st := b.Status(); st.Done != 4 || st.Mismatches != 0 {
		t.Fatalf("status = %+v, want 4 done, 0 mismatches", st)
	}
}

func TestDuplicateCompletionFirstWins(t *testing.T) {
	b, journal := newTestBoard(t, 2, BoardOptions{ChunkSize: 2, TTL: time.Hour})
	jobs := testJobs(2)
	id1, _, _, _ := b.Lease("w1")

	first := recordFor(jobs[0], 1)
	if err := b.Complete(id1, 0, first); err != nil {
		t.Fatal(err)
	}
	// Identical duplicate: dropped silently, no mismatch.
	if err := b.Complete(id1, 0, recordFor(jobs[0], 1)); err != nil {
		t.Fatal(err)
	}
	if st := b.Status(); st.Mismatches != 0 {
		t.Fatalf("identical duplicate counted as mismatch: %+v", st)
	}
	// Differing duplicate: still dropped (first wins), but counted as a
	// determinism violation.
	if err := b.Complete(id1, 0, recordFor(jobs[0], 0)); err != nil {
		t.Fatal(err)
	}
	if st := b.Status(); st.Mismatches != 1 {
		t.Fatalf("differing duplicate not counted: %+v", st)
	}
	if got := journal.Lookup("S", "T", "0000"); got == nil || got.REP != 1 {
		t.Fatalf("journal record = %+v, want the first-posted record (REP 1)", got)
	}
}

func TestCompleteValidatesCoordinates(t *testing.T) {
	b, _ := newTestBoard(t, 2, BoardOptions{ChunkSize: 2})
	id1, _, _, _ := b.Lease("w1")
	if err := b.Complete(id1, 5, recordFor(testJobs(6)[5], 1)); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	wrong := recordFor(core.JobRef{Suite: "S", Technique: "T", Spec: "9999"}, 1)
	if err := b.Complete(id1, 0, wrong); err == nil {
		t.Fatal("completion with mismatched job coordinates accepted")
	}
}

func TestResumeMarksJournaledJobsDone(t *testing.T) {
	journal := core.NewMemoryCheckpoint()
	jobs := testJobs(3)
	for _, j := range jobs {
		if err := journal.Append(recordFor(j, 1)); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBoard(jobs, BoardOptions{Journal: journal})
	select {
	case <-b.Done():
	default:
		t.Fatal("fully journaled board not done at construction")
	}
	if _, _, count, done := b.Lease("w1"); count != 0 || !done {
		t.Fatalf("lease on done board = count %d done %v, want 0 true", count, done)
	}
}

func TestWorkerLoopRunsStudyOverHTTP(t *testing.T) {
	jobs := testJobs(25)
	journal := core.NewMemoryCheckpoint()
	board := NewBoard(jobs, BoardOptions{ChunkSize: 4, TTL: 5 * time.Second, Journal: journal})
	coord, err := Serve("127.0.0.1:0", "digest-1", board)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	worker := func(id string) *Worker {
		return &Worker{
			BaseURL: "http://" + coord.Addr(),
			ID:      id,
			Digest:  "digest-1",
			Jobs:    jobs,
			Run: func(ctx context.Context, start int, refs []core.JobRef, emit func(int, *core.CheckpointRecord) error) error {
				// REP is keyed on the job, not its offset in the lease: a
				// stolen remainder starts elsewhere, and jobs must be
				// deterministic for first-wins completion to be sound.
				for i, ref := range refs {
					if err := emit(start+i, recordFor(ref, (start+i)%2)); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}

	// Two concurrent workers drain the board; each exits nil on "done".
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = worker(fmt.Sprintf("w%d", i)).Loop(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if journal.Len() != len(jobs) {
		t.Fatalf("journal holds %d records, want %d", journal.Len(), len(jobs))
	}
	if st := board.Status(); st.Done != len(jobs) || st.Mismatches != 0 {
		t.Fatalf("status = %+v, want all done, no mismatches", st)
	}
}

func TestCoordinatorRejectsDigestMismatch(t *testing.T) {
	jobs := testJobs(4)
	board := NewBoard(jobs, BoardOptions{Journal: core.NewMemoryCheckpoint()})
	coord, err := Serve("127.0.0.1:0", "digest-good", board)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	w := &Worker{
		BaseURL: "http://" + coord.Addr(),
		ID:      "skewed",
		Digest:  "digest-bad",
		Jobs:    jobs,
		Run: func(ctx context.Context, start int, refs []core.JobRef, emit func(int, *core.CheckpointRecord) error) error {
			t.Fatal("rejected worker ran jobs")
			return nil
		},
	}
	if err := w.Loop(context.Background()); !errors.Is(err, ErrRejected) {
		t.Fatalf("skewed worker got %v, want ErrRejected", err)
	}
	if journal := board.Status(); journal.Done != 0 {
		t.Fatalf("rejected worker completed jobs: %+v", journal)
	}
}

func TestStudyDigestDistinguishesSeeds(t *testing.T) {
	// Structural smoke: different seeds or technique lists change the digest.
	d1 := StudyDigest(1, []string{"A", "B"})
	d2 := StudyDigest(2, []string{"A", "B"})
	d3 := StudyDigest(1, []string{"A"})
	if d1 == d2 || d1 == d3 || d2 == d3 {
		t.Fatalf("digests collide: %s %s %s", d1, d2, d3)
	}
}

func TestCoordinatorCapsRequestBodies(t *testing.T) {
	jobs := testJobs(4)
	journal := core.NewMemoryCheckpoint()
	board := NewBoard(jobs, BoardOptions{ChunkSize: 4, TTL: 5 * time.Second, Journal: journal})
	coord, err := Serve("127.0.0.1:0", "digest-1", board)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	base := "http://" + coord.Addr()

	var lease LeaseResponse
	if err := post(context.Background(), http.DefaultClient, base+"/shard/lease",
		LeaseRequest{Worker: "w", Digest: "digest-1"}, &lease); err != nil || lease.Count != len(jobs) {
		t.Fatalf("lease = %+v, %v", lease, err)
	}

	// completion marshals a /shard/complete body for job i whose record's
	// error string pads it to exactly size bytes.
	completion := func(i, size int) []byte {
		req := CompleteRequest{Worker: "w", LeaseID: lease.LeaseID, Index: i, Record: recordFor(jobs[i], 1)}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		req.Record.Err = strings.Repeat("x", size-len(b)-len(`,"err":""`))
		if b, err = json.Marshal(req); err != nil || len(b) != size {
			t.Fatalf("padded body is %d bytes, want %d (%v)", len(b), size, err)
		}
		return b
	}
	send := func(body []byte) int {
		resp, err := http.Post(base+"/shard/complete", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("HTTP %d without a JSON error body (%v)", resp.StatusCode, err)
			}
		}
		return resp.StatusCode
	}

	if code := send(completion(0, maxRequestBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the cap: HTTP %d, want 413", code)
	}
	if st := board.Status(); st.Done != 0 || journal.Len() != 0 {
		t.Fatalf("oversized completion changed the board: %+v, journal %d", st, journal.Len())
	}
	if code := send(completion(0, maxRequestBytes)); code != http.StatusOK {
		t.Fatalf("body at the cap: HTTP %d, want 200", code)
	}
	var done CompleteResponse
	if err := post(context.Background(), http.DefaultClient, base+"/shard/complete",
		CompleteRequest{Worker: "w", LeaseID: lease.LeaseID, Index: 1, Record: recordFor(jobs[1], 1)}, &done); err != nil {
		t.Fatalf("real record rejected: %v", err)
	}
	if st := board.Status(); st.Done != 2 || journal.Len() != 2 {
		t.Fatalf("status = %+v, journal %d; want 2 done", st, journal.Len())
	}
}

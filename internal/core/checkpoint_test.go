package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// truncateJournal rewrites the journal to keep its first n records, followed
// by a torn (newline-less) copy of the next line — the on-disk shape left by
// a process killed mid-append.
func truncateJournal(t *testing.T, path string, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) <= n {
		t.Fatalf("journal has only %d lines, cannot keep %d", len(lines), n)
	}
	kept := bytes.Join(lines[:n], nil)
	kept = append(kept, bytes.TrimSuffix(lines[n], []byte("\n"))[:len(lines[n])/2]...)
	if err := os.WriteFile(path, kept, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	c, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*CheckpointRecord{
		{Suite: "S", Technique: "T1", Spec: "a", Repaired: true, REP: 1, TM: 0.5, SM: 0.25, Candidates: 3},
		{Suite: "S", Technique: "T1", Spec: "b", Err: "intentional"},
		{Suite: "S", Technique: "T2", Spec: "a"},
	}
	for _, r := range recs {
		if err := c.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	o, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.Len() != len(recs) {
		t.Fatalf("len = %d, want %d", o.Len(), len(recs))
	}
	got := o.Lookup("S", "T1", "a")
	if got == nil || !got.Repaired || got.REP != 1 || got.TM != 0.5 || got.SM != 0.25 || got.Candidates != 3 {
		t.Errorf("roundtrip lost fields: %+v", got)
	}
	if o.Lookup("S", "T1", "b").Err != "intentional" {
		t.Error("error string lost in roundtrip")
	}
	if o.Lookup("S", "T9", "a") != nil {
		t.Error("lookup invented a record")
	}
}

func TestCheckpointKeyIsUnambiguous(t *testing.T) {
	// Plain concatenation would collide ("ab"+"c" vs "a"+"bc"); the NUL
	// separator must keep these distinct.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	c, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Append(&CheckpointRecord{Suite: "S", Technique: "ab", Spec: "c"}); err != nil {
		t.Fatal(err)
	}
	if c.Lookup("S", "a", "bc") != nil {
		t.Error("distinct (technique, spec) pairs collided")
	}
}

func TestCreateCheckpointRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenCheckpoint(path, false)
	if err == nil {
		t.Fatal("must refuse to clobber an existing journal")
	}
	if !strings.Contains(err.Error(), "-resume") {
		t.Errorf("error %q does not point the operator at -resume", err)
	}
}

func TestOpenCheckpointMissingFileIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.jsonl")
	c, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 0 {
		t.Errorf("len = %d, want 0", c.Len())
	}
	// And it must be appendable.
	if err := c.Append(&CheckpointRecord{Suite: "S", Technique: "T", Spec: "a"}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenCheckpointDropsTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	body := `{"suite":"S","technique":"T","spec":"a","repaired":true}` + "\n" +
		`{"suite":"S","technique":"T","spec":"b"` // torn mid-append, no newline
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (torn line dropped)", c.Len())
	}
	if c.Lookup("S", "T", "b") != nil {
		t.Error("torn record should not have loaded")
	}
}

func TestOpenCheckpointRejectsCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	body := `{"suite":"S","technique":"T","spec":"a"}` + "\n" + "not json\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, true); err == nil {
		t.Fatal("a corrupt complete record must fail loudly, not be skipped")
	}
}

package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type journalRec struct {
	N int `json:"n"`
}

// loadJournal opens the journal at path, collecting the N of every replayed
// record.
func loadJournal(t *testing.T, path string) (*Journal, []int) {
	t.Helper()
	var ns []int
	j, err := OpenJournal(path, func(line []byte) error {
		var r journalRec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		ns = append(ns, r.N)
		return nil
	})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	return j, ns
}

// TestOpenJournalTruncatesTornTail covers the full crash-mid-append
// sequence: a torn final line must not only be dropped on load, it must be
// removed from the file — otherwise the next Append concatenates onto the
// torn tail and the *following* load fails on the merged malformed line,
// permanently refusing the journal that experienced exactly the crash the
// design claims to tolerate.
func TestOpenJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("{\"n\":1}\n{\"n\":2"), 0o644); err != nil {
		t.Fatal(err)
	}

	j, ns := loadJournal(t, path)
	if len(ns) != 1 || ns[0] != 1 {
		t.Fatalf("first load replayed %v, want [1]", ns)
	}
	if err := j.Append(journalRec{N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart after the crash: torn record 2 is gone, and appended
	// record 3 loads cleanly instead of fusing with its remains.
	j2, ns2 := loadJournal(t, path)
	defer j2.Close()
	if len(ns2) != 2 || ns2[0] != 1 || ns2[1] != 3 {
		t.Fatalf("reload replayed %v, want [1 3]", ns2)
	}
}

// TestOpenJournalKeepsCompleteFile ensures the truncation path does not fire
// on a cleanly-closed journal.
func TestOpenJournalKeepsCompleteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("{\"n\":1}\n{\"n\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, ns := loadJournal(t, path)
	defer j.Close()
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Fatalf("replayed %v, want [1 2]", ns)
	}
}

// FuzzOpenJournal feeds arbitrary bytes to OpenJournal as an existing
// journal file. Loading must never panic, and whenever it succeeds the
// journal must stay appendable: an Append followed by a reopen replays
// exactly the complete lines of the first load plus the new record, which
// covers torn-tail recovery on every input the fuzzer finds.
func FuzzOpenJournal(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"n\":1}\n{\"n\":2}\n"))
	f.Add([]byte("{\"n\":1}\n{\"n\":2"))
	f.Add([]byte("\n{\"n\":1}\n\n\n{\"n\":2}\n"))
	f.Add([]byte("{\"n\":1}\nnot json\n{\"n\":2}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*Journal, []string, error) {
			var lines []string
			j, err := OpenJournal(path, func(line []byte) error {
				if !json.Valid(line) {
					return errors.New("invalid JSON line")
				}
				lines = append(lines, string(line))
				return nil
			})
			return j, lines, err
		}
		j, before, err := open()
		if err != nil {
			return
		}
		if err := j.Append(journalRec{N: 42}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, after, err := open()
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer j2.Close()
		want := append(before, `{"n":42}`)
		if !reflect.DeepEqual(after, want) {
			t.Fatalf("reopen replayed %q, want %q", after, want)
		}
	})
}

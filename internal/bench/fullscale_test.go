package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"specrepair/internal/alloy/printer"
)

// TestFullScaleCounts regenerates both suites at full scale and verifies the
// paper's corpus sizes exactly. This is the slowest test in the repository
// (~1 minute); skip it in -short runs.
func TestFullScaleCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale benchmark generation is slow")
	}
	a4f, ar, err := fullSuites()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(a4f.Specs), 1936; got != want {
		t.Errorf("A4F total = %d, want %d", got, want)
	}
	if got, want := len(ar.Specs), 38; got != want {
		t.Errorf("ARepair total = %d, want %d", got, want)
	}
	wantA4F := map[string]int{
		"classroom": 999, "cv": 138, "graphs": 283,
		"lts": 249, "production": 61, "trash": 206,
	}
	for dom, want := range wantA4F {
		if got := len(a4f.ByDomain()[dom]); got != want {
			t.Errorf("A4F %s = %d, want %d", dom, got, want)
		}
	}
	wantAR := map[string]int{
		"addr": 1, "arr": 2, "balancedBSt": 3, "bempl": 1, "cd": 2, "ctree": 1,
		"dll": 4, "farmer": 1, "fsm": 2, "grade": 1, "other": 1, "Student": 19,
	}
	for dom, want := range wantAR {
		if got := len(ar.ByDomain()[dom]); got != want {
			t.Errorf("ARepair %s = %d, want %d", dom, got, want)
		}
	}

	// The overall deep-fault share stays low enough that single-edit repair
	// techniques can plausibly fix the majority of the corpus, as in the
	// paper's Table I.
	deep := 0
	for _, s := range a4f.Specs {
		if s.Depth == 2 {
			deep++
		}
	}
	if share := float64(deep) / float64(len(a4f.Specs)); share > 0.45 {
		t.Errorf("A4F deep share = %.2f, want <= 0.45", share)
	}
}

// paperCorpusDigest is the SHA-256 over every full-scale A4F and ARepair
// entry's name, depth, printed faulty module and printed ground truth, in
// suite order. Any change to the injector, the base models or the printer
// that alters the paper corpora changes it.
const paperCorpusDigest = "2ef8f9c967b93c369a7acc99b64154bec78ff9cf47b2fd4db1bd10f1d79b75b1"

// TestPaperCorpusDigest pins the content of both paper corpora at full
// scale, so refactors of the generator cannot silently change the specs
// every study result is computed from.
func TestPaperCorpusDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale benchmark generation is slow")
	}
	a4f, ar, err := fullSuites()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, suite := range []*Suite{a4f, ar} {
		for _, s := range suite.Specs {
			fmt.Fprintf(h, "%s/%s\x00%d\x00%s\x00%s\x00",
				suite.Name, s.Name, s.Depth, printer.Module(s.Faulty), printer.Module(s.GroundTruth))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != paperCorpusDigest {
		t.Errorf("paper corpus digest = %s, want %s", got, paperCorpusDigest)
	}
}

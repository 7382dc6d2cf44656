package aunit

import (
	"strings"
	"sync"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/analyzer"
)

const model = `
sig Node { next: set Node }
pred linked { all n: Node | some n.next }
run linked for 3
`

func mustParse(t *testing.T, src string) *ast.Module {
	t.Helper()
	mod, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestRunPassingTest(t *testing.T) {
	mod := mustParse(t, model)
	test := &Test{
		Name: "cycle_is_linked",
		Valuation: map[string][][]string{
			"Node": {{"N0"}, {"N1"}},
			"next": {{"N0", "N1"}, {"N1", "N0"}},
		},
		Formula: "linked[]",
		Expect:  true,
	}
	// linked has no params; use pred body through a call-free formula too.
	test.Formula = "all n: Node | some n.next"
	if r := test.Run(mod); !r.Passed {
		t.Errorf("test should pass: %v", r.Err)
	}
}

func TestRunFailingTest(t *testing.T) {
	mod := mustParse(t, model)
	test := &Test{
		Name: "dangling_not_linked",
		Valuation: map[string][][]string{
			"Node": {{"N0"}, {"N1"}},
			"next": {{"N0", "N1"}},
		},
		Formula: "all n: Node | some n.next",
		Expect:  true, // N1 has no next: formula false, so test fails
	}
	if r := test.Run(mod); r.Passed {
		t.Error("test should fail")
	}
}

func TestExpectFalse(t *testing.T) {
	mod := mustParse(t, model)
	test := &Test{
		Name: "dangling_detected",
		Valuation: map[string][][]string{
			"Node": {{"N0"}, {"N1"}},
			"next": {{"N0", "N1"}},
		},
		Formula: "all n: Node | some n.next",
		Expect:  false,
	}
	if r := test.Run(mod); !r.Passed {
		t.Errorf("expect-false test should pass: %v", r.Err)
	}
}

func TestMissingRelationsAreEmpty(t *testing.T) {
	mod := mustParse(t, model)
	test := &Test{
		Name: "empty_next",
		Valuation: map[string][][]string{
			"Node": {{"N0"}},
		},
		Formula: "no next",
		Expect:  true,
	}
	if r := test.Run(mod); !r.Passed {
		t.Errorf("missing relation should default to empty: %v", r.Err)
	}
}

func TestPredCallInFormula(t *testing.T) {
	src := `
sig Node { next: set Node }
pred hasSucc[n: Node] { some n.next }
run hasSucc for 3
`
	mod := mustParse(t, src)
	test := &Test{
		Name: "call",
		Valuation: map[string][][]string{
			"Node": {{"N0"}, {"N1"}},
			"next": {{"N0", "N1"}},
		},
		Formula: "some n: Node | hasSucc[n]",
		Expect:  true,
	}
	if r := test.Run(mod); !r.Passed {
		t.Errorf("pred call formula failed: %v", r.Err)
	}
}

func TestSuiteRunAll(t *testing.T) {
	mod := mustParse(t, model)
	s := &Suite{}
	s.Add(&Test{
		Name:      "pass",
		Valuation: map[string][][]string{"Node": {{"N0"}}, "next": {{"N0", "N0"}}},
		Formula:   "some next",
		Expect:    true,
	})
	s.Add(&Test{
		Name:      "fail",
		Valuation: map[string][][]string{"Node": {{"N0"}}},
		Formula:   "some next",
		Expect:    true,
	})
	results, passed := s.RunAll(mod)
	if len(results) != 2 || passed != 1 {
		t.Errorf("RunAll = %d results, %d passed", len(results), passed)
	}
	if s.AllPass(mod) {
		t.Error("AllPass should be false")
	}
}

func TestBadFormulaReportsError(t *testing.T) {
	mod := mustParse(t, model)
	test := &Test{
		Name:      "broken",
		Valuation: map[string][][]string{"Node": {{"N0"}}},
		Formula:   "some Unknown",
		Expect:    true,
	}
	r := test.Run(mod)
	if r.Passed || r.Err == nil {
		t.Errorf("bad formula should error: %+v", r)
	}
	if !strings.Contains(r.Err.Error(), "broken") {
		t.Errorf("error should name the test: %v", r.Err)
	}
}

func TestFromInstanceRoundTrip(t *testing.T) {
	a := analyzer.New(analyzer.Options{})
	mod := mustParse(t, model)
	results, err := a.ExecuteAll(mod)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Sat {
		t.Fatal("expected instance")
	}
	test := FromInstance("from_run", results[0].Instance, "all n: Node | some n.next", true)
	if r := test.Run(mod); !r.Passed {
		t.Errorf("instance-derived test should pass on the source model: %v", r.Err)
	}
}

func TestSuiteClone(t *testing.T) {
	s := &Suite{}
	s.Add(&Test{Name: "a"})
	c := s.Clone()
	c.Add(&Test{Name: "b"})
	if s.Len() != 1 || c.Len() != 2 {
		t.Error("clone should not share backing slice growth")
	}
}

// TestModelSharedAcrossGoroutines runs one suite against one Model from two
// goroutines; under -race it proves a lowered model is read-only.
func TestModelSharedAcrossGoroutines(t *testing.T) {
	m := Lower(mustParse(t, model))
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	s := &Suite{}
	s.Add(&Test{Name: "call", Valuation: map[string][][]string{"Node": {{"N0"}}, "next": {{"N0", "N0"}}}, Formula: "linked[]", Expect: true})
	s.Add(&Test{Name: "facts", Valuation: map[string][][]string{"Node": {{"N0"}, {"N1"}}}, Formula: FactsFormula, Expect: true})
	s.Add(&Test{Name: "fail", Valuation: map[string][][]string{"Node": {{"N0"}}}, Formula: "all n: Node | some n.next", Expect: true})
	want, wantPassed := s.RunModel(m)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, passed := s.RunModel(m)
				if passed != wantPassed || len(got) != len(want) {
					t.Errorf("concurrent RunModel passed %d of %d, want %d of %d", passed, len(got), wantPassed, len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

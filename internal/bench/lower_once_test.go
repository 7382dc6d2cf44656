package bench

import (
	"fmt"
	"strings"
	"testing"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/alloy/types"
	"specrepair/internal/aunit"
	"specrepair/internal/instance"
)

// referenceRun evaluates one test the way a suite run did before a suite
// lowered its model once: it lowers mod afresh for the single test.
func referenceRun(t *aunit.Test, mod *ast.Module) (bool, error) {
	low, info, err := types.Lower(mod)
	if err != nil {
		return false, fmt.Errorf("test %s: model does not check: %w", t.Name, err)
	}
	inst, err := t.Instance(info)
	if err != nil {
		return false, err
	}
	var expr ast.Expr
	if t.Formula == aunit.FactsFormula {
		blk := &ast.Block{}
		for _, f := range low.Facts {
			blk.Exprs = append(blk.Exprs, f.Body)
		}
		expr = blk
	} else {
		expr, err = parser.ParseExpr(t.Formula)
		if err != nil {
			return false, fmt.Errorf("test %s: parsing formula: %w", t.Name, err)
		}
		expr = types.RewriteCalls(low, expr)
	}
	ev := &instance.Evaluator{Mod: low, Inst: inst}
	got, err := ev.EvalFormula(expr, nil)
	if err != nil {
		return false, fmt.Errorf("test %s: evaluating: %w", t.Name, err)
	}
	return got == t.Expect, nil
}

// assertLowerOnceEquivalent checks that a suite run over one lowered model
// reports, test for test, the pass bit and error text of per-test lowering.
func assertLowerOnceEquivalent(t *testing.T, name string, suite *aunit.Suite, mod *ast.Module) {
	t.Helper()
	results, passed := suite.RunAll(mod)
	if len(results) != suite.Len() {
		t.Fatalf("%s: %d results for %d tests", name, len(results), suite.Len())
	}
	wantPassed := 0
	for i, test := range suite.Tests {
		ok, err := referenceRun(test, mod)
		if ok {
			wantPassed++
		}
		got := results[i]
		if got.Test != test || got.Passed != ok || errText(got.Err) != errText(err) {
			t.Errorf("%s: test %s: RunAll = (passed %v, err %q), per-test lowering = (passed %v, err %q)",
				name, test.Name, got.Passed, errText(got.Err), ok, errText(err))
		}
	}
	if passed != wantPassed {
		t.Errorf("%s: RunAll counts %d passing, per-test lowering %d", name, passed, wantPassed)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSuiteLowersOnceEquivalently runs every suite of the scale-100 corpus
// against its faulty and ground-truth modules, and against a module that
// does not type-check, comparing RunAll with per-test lowering.
func TestSuiteLowersOnceEquivalently(t *testing.T) {
	g := NewGenerator(nil)
	g.Scale = 100
	a4f, ar, err := g.Both()
	if err != nil {
		t.Fatal(err)
	}
	specs := append(a4f.Specs, ar.Specs...)
	for _, s := range specs {
		assertLowerOnceEquivalent(t, s.Name+"/faulty", s.Tests, s.Faulty)
		assertLowerOnceEquivalent(t, s.Name+"/gt", s.Tests, s.GroundTruth)
	}

	s := specs[0]
	broken, err := parser.Parse(printer.Module(s.GroundTruth) + "\nfact Broken { some NoSuchSig }\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := types.Lower(broken); err == nil {
		t.Fatal("broken module type-checks")
	}
	assertLowerOnceEquivalent(t, s.Name+"/broken", s.Tests, broken)
	results, _ := s.Tests.RunAll(broken)
	for _, r := range results {
		if want := "test " + r.Test.Name + ": model does not check: "; r.Err == nil || !strings.HasPrefix(r.Err.Error(), want) {
			t.Errorf("broken module: test %s err = %v, want prefix %q", r.Test.Name, r.Err, want)
		}
	}
}

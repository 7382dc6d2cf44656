package parser_test

import (
	"testing"

	"specrepair/internal/alloy/parser"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/bench"
)

// FuzzParsePrint checks the printer's canonical-form contract on arbitrary
// source: whenever Parse accepts an input, the printed module parses again
// and prints to the same bytes. The analysis cache and the service's dedup
// key both rely on that fixpoint. Seeds are the printed faulty and
// ground-truth modules of the scale-100 corpus.
func FuzzParsePrint(f *testing.F) {
	g := bench.NewGenerator(nil)
	g.Scale = 100
	a4f, ar, err := g.Both()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range append(a4f.Specs, ar.Specs...) {
		f.Add(printer.Module(s.Faulty))
		f.Add(printer.Module(s.GroundTruth))
	}
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := parser.Parse(src)
		if err != nil {
			return
		}
		first := printer.Module(mod)
		reparsed, err := parser.Parse(first)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\n%s", err, first)
		}
		if second := printer.Module(reparsed); second != first {
			t.Fatalf("print is not a fixpoint\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}

// Command benchgen materializes the generated benchmark corpora on disk:
// one directory per domain, with each entry's faulty specification, ground
// truth, and AUnit test manifest — the same artifact layout as the study's
// figshare bundle.
//
// Usage:
//
//	benchgen -out ./corpus -scale 20     # 1/20-size corpora
//	benchgen -out ./corpus               # full 1,974-spec corpora
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"specrepair/internal/alloy/printer"
	"specrepair/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchgen", flag.ContinueOnError)
	out := fs.String("out", "corpus", "output directory")
	scale := fs.Int("scale", 1, "divide corpus sizes by this factor")
	if err := fs.Parse(args); err != nil {
		return err
	}

	gen := bench.NewGenerator(nil)
	if *scale > 1 {
		gen.Scale = *scale
	}
	a4f, ar, err := gen.Both()
	if err != nil {
		return err
	}
	total := 0
	for _, suite := range []*bench.Suite{a4f, ar} {
		for _, spec := range suite.Specs {
			dir := filepath.Join(*out, suite.Name, filepath.FromSlash(spec.Name))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, "faulty.als"),
				[]byte(printer.Module(spec.Faulty)), 0o644); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, "ground_truth.als"),
				[]byte(printer.Module(spec.GroundTruth)), 0o644); err != nil {
				return err
			}
			manifest := map[string]any{
				"name":      spec.Name,
				"benchmark": spec.Benchmark,
				"domain":    spec.Domain,
				"depth":     spec.Depth,
				"hints":     spec.Hints,
				"tests":     spec.Tests.Tests,
			}
			data, err := json.MarshalIndent(manifest, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
				return err
			}
			total++
		}
	}
	fmt.Printf("wrote %d benchmark entries under %s\n", total, strings.TrimSuffix(*out, "/"))
	return nil
}

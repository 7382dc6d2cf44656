package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/alloy/printer"
	"specrepair/internal/mutation"
	"specrepair/internal/repair"
)

// faultEdit is one injected mutation, remembered so hints can describe its
// inverse (the intended fix).
type faultEdit struct {
	site mutation.ScopedSite
	repl ast.Expr
}

// inject derives the domain's faulty variants from its ground truth by
// sampling mutations (the inverse of repair) until the oracle breaks.
// Variants are deduplicated by canonical printing. When single edits run
// out, stacked double edits extend the pool; the deepShare fraction of the
// corpus is drawn from the double-edit pool regardless, modeling each
// domain's share of complex faults.
func (g *Generator) inject(p domainProfile, gt *ast.Module) ([]*Spec, error) {
	h := fnv.New64a()
	h.Write([]byte(p.benchmark + "/" + p.domain))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	eng, err := mutation.NewEngine(gt)
	if err != nil {
		return nil, fmt.Errorf("mutating ground truth: %w", err)
	}

	// Pool of candidate single edits in deterministic order, shuffled by
	// the domain's RNG.
	type editCand struct {
		site mutation.ScopedSite
		repl ast.Expr
	}
	var pool []editCand
	budget := mutation.BudgetRelations
	if p.count > 150 {
		// Large corpora need the template-level pool for enough variety.
		budget = mutation.BudgetTemplates
	}
	for _, s := range eng.Sites() {
		for _, c := range eng.Candidates(s, budget) {
			pool = append(pool, editCand{site: s, repl: c})
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	gtPrint := printer.Module(gt)
	seen := map[string]bool{gtPrint: true}
	var shallow, deep []*Spec

	tryEdit := func(edits []faultEdit, depth int) *Spec {
		mod := eng.Mod
		var applied *ast.Module
		for i, e := range edits {
			var err error
			if i == 0 {
				applied, err = mutation.Apply(mod, e.site.Site, e.repl)
			} else {
				applied, err = mutation.Apply(applied, e.site.Site, e.repl)
			}
			if err != nil {
				return nil
			}
		}
		key := printer.Module(applied)
		if seen[key] {
			return nil
		}
		seen[key] = true
		if !g.breaksOracle(applied) {
			return nil
		}
		first := edits[0]
		spec := &Spec{
			Benchmark:   p.benchmark,
			Domain:      p.domain,
			Depth:       depth,
			Faulty:      applied,
			GroundTruth: gt.Clone(),
			Tests:       p.tests(),
			Hints: repair.Hints{
				Location: first.site.Container.String(),
				FixDescription: fmt.Sprintf("replace `%s` with `%s`",
					printer.Expr(first.repl), printer.Expr(first.site.Node)),
				PassAssertion: firstAssertName(gt),
			},
		}
		return spec
	}

	wantDeep := int(float64(p.count)*p.deepShare + 0.5)

	// Single edits first, up to the full count.
	for _, c := range pool {
		if len(shallow) >= p.count {
			break
		}
		if s := tryEdit([]faultEdit{{site: c.site, repl: c.repl}}, 1); s != nil {
			shallow = append(shallow, s)
		}
	}

	// Double edits: pair distinct pool entries at different sites.
	if wantDeep > 0 || len(shallow) < p.count {
		need := wantDeep + p.count - len(shallow)
		for i := 0; i < len(pool) && len(deep) < need; i++ {
			for j := i + 1; j < len(pool) && len(deep) < need; j++ {
				a, b := pool[i], pool[j]
				if a.site.Site.String() == b.site.Site.String() {
					continue
				}
				if s := tryEdit([]faultEdit{
					{site: a.site, repl: a.repl},
					{site: b.site, repl: b.repl},
				}, 2); s != nil {
					deep = append(deep, s)
				}
			}
		}
	}

	// Last resort for very large corpora over compact models: stack three
	// edits at pairwise-distinct sites (labeled Depth 2, like every stacked
	// fault).
	if len(shallow)+len(deep) < p.count {
		need := p.count - len(shallow) - len(deep)
		for i := 0; i < len(pool) && need > 0; i++ {
			for j := i + 1; j < len(pool) && need > 0; j++ {
				for k := j + 1; k < len(pool) && need > 0; k++ {
					a, b, c := pool[i], pool[j], pool[k]
					if a.site.Site.String() == b.site.Site.String() ||
						b.site.Site.String() == c.site.Site.String() ||
						a.site.Site.String() == c.site.Site.String() {
						continue
					}
					if s := tryEdit([]faultEdit{
						{site: a.site, repl: a.repl},
						{site: b.site, repl: b.repl},
						{site: c.site, repl: c.repl},
					}, 2); s != nil {
						deep = append(deep, s)
						need--
					}
				}
			}
		}
	}

	// Assemble: deepShare of the corpus from the double pool, rest shallow.
	var specs []*Spec
	useDeep := minInt(wantDeep, len(deep))
	useShallow := minInt(p.count-useDeep, len(shallow))
	specs = append(specs, shallow[:useShallow]...)
	specs = append(specs, deep[:useDeep]...)
	// Top up from whichever pool has leftovers.
	for _, extra := range [][]*Spec{deep[useDeep:], shallow[useShallow:]} {
		for _, s := range extra {
			if len(specs) >= p.count {
				break
			}
			specs = append(specs, s)
		}
	}
	if len(specs) < p.count {
		return nil, fmt.Errorf("only %d of %d faulty variants could be generated", len(specs), p.count)
	}
	for i, s := range specs {
		s.Name = fmt.Sprintf("%s/%04d", p.domain, i)
	}
	return specs, nil
}

// breaksOracle reports whether the module fails at least one of its
// commands (and still analyzes at all).
func (g *Generator) breaksOracle(mod *ast.Module) bool {
	ok, err := repair.OracleAllCommandsPass(context.Background(), g.an, mod)
	if err != nil {
		return false // non-analyzable mutants are not realistic faulty specs
	}
	return !ok
}

func firstAssertName(mod *ast.Module) string {
	if len(mod.Asserts) > 0 {
		return mod.Asserts[0].Name
	}
	return ""
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

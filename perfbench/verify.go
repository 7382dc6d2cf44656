package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"specrepair/internal/alloy/ast"
	"specrepair/internal/anacache"
	"specrepair/internal/analyzer"
	"specrepair/internal/bench"
	"specrepair/internal/bounds"
	"specrepair/internal/sat"
	"specrepair/internal/telemetry"
)

const (
	// verifyScale selects the scale-10 corpus: 202 specs, 404 modules.
	verifyScale = 10
	// verifyLimit is the ExecuteAll latency verify counts toward slo_frac:
	// about the 90th percentile here, so slo_frac can move both ways.
	verifyLimit = 12 * time.Millisecond
	// verifyRefKey keys verify's single reference digest: the verdicts do
	// not depend on the visiting order.
	verifyRefKey = "all"
	// overheadModules is the reduced unit of verify's tracing-overhead pairs.
	overheadModules = 128
)

// verifyModule is one faulty or ground-truth module with every command's
// scope raised by one.
type verifyModule struct {
	name  string
	truth bool
	mod   *ast.Module
}

type verifyInput struct {
	specs []*bench.Spec
	mods  []verifyModule
	order []int // the seeded visiting order of mods
}

// raiseScopes adds one to every bound of every command of mod.
func raiseScopes(mod *ast.Module) *ast.Module {
	m := mod.Clone()
	for _, c := range m.Commands {
		if c.Scope.Default == 0 {
			c.Scope.Default = bounds.DefaultScope
		}
		c.Scope.Default++
		for k := range c.Scope.PerSig {
			c.Scope.PerSig[k]++
		}
		for k := range c.Scope.Exact {
			c.Scope.Exact[k]++
		}
	}
	return m
}

func verifySetup(seed int64) (*verifyInput, error) {
	specs, err := generateCorpus(verifyScale)
	if err != nil {
		return nil, err
	}
	in := &verifyInput{specs: specs}
	for _, sp := range specs {
		in.mods = append(in.mods,
			verifyModule{name: sp.Name, truth: false, mod: raiseScopes(sp.Faulty)},
			verifyModule{name: sp.Name, truth: true, mod: raiseScopes(sp.GroundTruth)})
	}
	in.order = rand.New(rand.NewSource(seed)).Perm(len(in.mods))
	return in, nil
}

// verifyPass is one closed-loop pass: ExecuteAll on every module in the
// seeded order, one call at a time.
type verifyPass struct {
	latencies []time.Duration
	verdicts  []string // by module index: S sat, U unsat, ? budget exhausted
	decided   int
	errors    int
	window    time.Duration
}

func runVerifyPass(in *verifyInput, order []int, an *analyzer.Analyzer) *verifyPass {
	p := &verifyPass{verdicts: make([]string, len(in.mods))}
	start := time.Now()
	for _, i := range order {
		t := time.Now()
		res, err := an.ExecuteAll(in.mods[i].mod)
		p.latencies = append(p.latencies, time.Since(t))
		if err != nil {
			p.errors++
			p.verdicts[i] = "error: " + err.Error()
			continue
		}
		var b strings.Builder
		for _, r := range res {
			switch {
			case r.Status == sat.StatusUnknown:
				b.WriteByte('?')
			case r.Sat:
				b.WriteByte('S')
				p.decided++
			default:
				b.WriteByte('U')
				p.decided++
			}
		}
		p.verdicts[i] = b.String()
	}
	p.window = time.Since(start)
	return p
}

// digest fingerprints the verdict vector in corpus order.
func (p *verifyPass) digest(in *verifyInput) string {
	h := sha256.New()
	for i, m := range in.mods {
		fmt.Fprintf(h, "%s %v %s\n", m.name, m.truth, p.verdicts[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newVerifyAnalyzer configures the analyzer as cmd/alloycli does (default
// conflict budget, no cache), recording into reg. When reg traces, the
// analyzer's spans hang under a root span the benchmark opens.
func newVerifyAnalyzer(reg *telemetry.Registry) *analyzer.Analyzer {
	an := analyzer.New(analyzer.Options{Telemetry: telemetry.NewCollector(reg)})
	return an.WithContext(telemetry.ContextWithSpan(context.Background(), reg.StartSpan("verify")))
}

// verifyOnce returns the verdict digest of one pass (for the references).
func verifyOnce(in *verifyInput) (string, error) {
	p := runVerifyPass(in, in.order, newVerifyAnalyzer(telemetry.New()))
	if p.errors > 0 {
		return "", fmt.Errorf("verify: %d ExecuteAll calls failed", p.errors)
	}
	return p.digest(in), nil
}

// checkVerifyPass adds a pass's calls to the attempted and failed counts;
// on a digest mismatch every call of the pass counts as failed.
func checkVerifyPass(r *report, in *verifyInput, p *verifyPass) {
	r.attempted += len(p.latencies)
	want, ok := reference("verify", verifyRefKey)
	got := p.digest(in)
	switch {
	case !ok:
		r.problem("verify: no reference digest")
		r.failed += len(p.latencies)
	case got != want:
		r.problem("verify: verdict digest %.16s, want %.16s", got, want)
		r.failed += len(p.latencies)
	default:
		r.failed += p.errors
	}
}

// checkOracles requires, at native scope, every ground truth to pass its
// oracle and every faulty module to fail it.
func checkOracles(r *report, specs []*bench.Spec) {
	an := analyzer.New(analyzer.Options{})
	for _, sp := range specs {
		for _, m := range []struct {
			mod  *ast.Module
			want bool
		}{{sp.GroundTruth, true}, {sp.Faulty, false}} {
			r.attempted++
			pass, err := an.PassesAll(m.mod)
			if err != nil || pass != m.want {
				r.failed++
				r.problem("verify: %s oracle at native scope: passes=%v err=%v, want passes=%v", sp.Name, pass, err, m.want)
			}
		}
	}
}

func runVerify(seed int64, seconds float64, r *report) error {
	in, setups, err := timeSetup(func() (*verifyInput, error) { return verifySetup(seed) }, nil)
	if err != nil {
		return err
	}
	reg := telemetry.New()
	an := newVerifyAnalyzer(reg)
	var window time.Duration
	var lat []time.Duration
	decided, passes := 0, 0
	var last time.Duration
	for morePasses(passes, window, last, seconds) {
		p := runVerifyPass(in, in.order, an)
		passes++
		window += p.window
		last = p.window
		lat = append(lat, p.latencies...)
		decided += p.decided
		checkVerifyPass(r, in, p)
	}
	checkOracles(r, in.specs)
	lms := ms(lat)
	r.set("setup_s", "s", median(setups), len(setups))
	r.set("specs_per_min", "specs/min", float64(len(in.specs)*passes)/window.Minutes(), passes)
	r.set("verdicts_per_s", "1/s", float64(decided)/window.Seconds(), decided)
	r.set("slo_frac", "fraction", fracWithin(lms, float64(verifyLimit.Milliseconds()), 0), len(lms))
	r.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	return nil
}

func traceVerify(seed int64, seconds float64, r *report) error {
	in, err := verifySetup(seed)
	if err != nil {
		return err
	}
	reg := telemetry.New()
	var p *verifyPass
	if err := memDelta(r, func() error {
		p = runVerifyPass(in, in.order, newVerifyAnalyzer(reg))
		return nil
	}); err != nil {
		return err
	}
	checkVerifyPass(r, in, p)
	counterMetrics(r, anacache.Stats{}, reg)
	latencyMetrics(r, ms(p.latencies))
	var busy time.Duration
	for _, d := range p.latencies {
		busy += d
	}
	r.set("core.busy_frac", "fraction", busy.Seconds()/p.window.Seconds(), len(p.latencies))

	sink := &spanSink{}
	if err := profileInto(r, func() error {
		treg := telemetry.New()
		treg.SetSink(sink)
		checkVerifyPass(r, in, runVerifyPass(in, in.order, newVerifyAnalyzer(treg)))
		return nil
	}); err != nil {
		return err
	}
	setSpanMetrics(r, sink)
	if err := replayLayers(r, seed, in.specs); err != nil {
		return err
	}
	unit := in.order[:min(overheadModules, len(in.order))]
	return overheadPairs(r, func(traced bool) error {
		reg := telemetry.New()
		if traced {
			reg.SetSink(&spanSink{})
		}
		if p := runVerifyPass(in, unit, newVerifyAnalyzer(reg)); p.errors > 0 {
			return fmt.Errorf("verify: %d ExecuteAll calls failed", p.errors)
		}
		return nil
	})
}

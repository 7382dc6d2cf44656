package core

import (
	"testing"

	"specrepair/internal/anacache"
)

// TestRunnerCachedMatchesUncached evaluates the same suite with and without
// a shared analysis cache and demands identical study-level results — the
// cache must be a pure accelerator, invisible in every metric. It also
// verifies that the cache actually participated (hits recorded, stats
// surfaced on the Evaluation) and that a cached run stays deterministic
// under parallelism.
func TestRunnerCachedMatchesUncached(t *testing.T) {
	suite := miniSuite(t)
	pick := func(factories []Factory) []Factory {
		var out []Factory
		for _, f := range factories {
			if f.Name == "BeAFix" || f.Name == "Single-Round_None" {
				out = append(out, f)
			}
		}
		return out
	}

	plain := &Runner{Workers: 2}
	ePlain, err := plain.Evaluate(suite, pick(StudyFactories(1)))
	if err != nil {
		t.Fatal(err)
	}
	if ePlain.CacheStats != (anacache.Stats{}) {
		t.Errorf("uncached run reported cache stats: %+v", ePlain.CacheStats)
	}

	cache := anacache.New(0)
	cachedRunner := &Runner{Workers: 4, Cache: cache}
	eCached, err := cachedRunner.Evaluate(suite, pick(StudyFactoriesWith(1, FactoryOptions{Cache: cache})))
	if err != nil {
		t.Fatal(err)
	}

	for tech, plainResults := range ePlain.Results {
		cachedResults := eCached.Results[tech]
		if len(cachedResults) != len(plainResults) {
			t.Fatalf("%s: %d cached results, want %d", tech, len(cachedResults), len(plainResults))
		}
		for name, pr := range plainResults {
			cr := cachedResults[name]
			if cr == nil {
				t.Errorf("%s/%s: missing cached result", tech, name)
				continue
			}
			if pr.REP != cr.REP || pr.TM != cr.TM || pr.SM != cr.SM {
				t.Errorf("%s/%s: cached (REP=%d TM=%.3f SM=%.3f) != uncached (REP=%d TM=%.3f SM=%.3f)",
					tech, name, cr.REP, cr.TM, cr.SM, pr.REP, pr.TM, pr.SM)
			}
		}
	}

	if eCached.CacheStats.Hits == 0 {
		t.Errorf("cached run recorded no hits: %s", eCached.CacheStats)
	}
	if eCached.CacheStats.Lookups() != cache.Stats().Lookups() {
		t.Errorf("Evaluation.CacheStats not a final snapshot: %s vs %s",
			eCached.CacheStats, cache.Stats())
	}
}

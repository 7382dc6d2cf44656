package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"specrepair/internal/core"
)

// refs holds the reference output digests per workload: study (and shard)
// keyed by input seed, serve by job label ("spec|technique", one for every
// job of the corpus, so a window of any length can be checked), and verify
// under verifyRefKey.
type refs map[string]map[string]string

func loadRefs() (refs, error) {
	b, err := os.ReadFile(refsPath)
	if err != nil {
		return nil, err
	}
	var out refs
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", refsPath, err)
	}
	return out, nil
}

// reference returns the recorded digest for one of a workload's outputs.
func reference(workload, key string) (string, bool) {
	all, err := loadRefs()
	if err != nil {
		return "", false
	}
	d, ok := all[workload][key]
	return d, ok
}

// writeReferences recomputes every reference digest on the current code
// and rewrites refs.json.
func writeReferences() error {
	out := refs{"study": {}, "verify": {}, "serve": {}}
	in, err := verifySetup(0)
	if err != nil {
		return err
	}
	d, err := verifyOnce(in)
	if err != nil {
		return err
	}
	out["verify"][verifyRefKey] = d
	fmt.Fprintf(os.Stderr, "verify: %s\n", d)
	// Every job of the serve corpus, burstSpecs specs per fresh service.
	specs, err := generateCorpus(studyScale)
	if err != nil {
		return err
	}
	jobs, err := spreadJobs(specs, len(specs))
	if err != nil {
		return err
	}
	for len(jobs) > 0 {
		n := min(len(jobs), burstSpecs*len(core.TechniqueNames))
		lr, err := burst(jobs[:n])
		if err != nil {
			return err
		}
		if lr.failed > 0 {
			return fmt.Errorf("serve: %d of %d jobs failed: %v", lr.failed, lr.attempted, lr.problems)
		}
		for label, d := range lr.results {
			out["serve"][label] = d
		}
		jobs = jobs[n:]
	}
	fmt.Fprintf(os.Stderr, "serve: %d jobs\n", len(out["serve"]))
	for seed := int64(1); seed <= refSeeds; seed++ {
		p, err := runStudyPass(seed, studyScale, nil)
		if err != nil {
			return err
		}
		key := strconv.FormatInt(seed, 10)
		out["study"][key] = studyDigest(p.study)
		fmt.Fprintf(os.Stderr, "study seed %d: %s\n", seed, out["study"][key])
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsPath, append(b, '\n'), 0o644)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

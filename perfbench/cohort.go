package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// measureVersion changes whenever the benchmark's measurement changes, so
// results taken under different rules never compare.
const measureVersion = 1

// cohort identifies the conditions a result was measured under.
type cohort struct {
	// Revision is a digest of the source tree the benchmark built; it is
	// the revision even where the tree is not a git checkout.
	Revision string `json:"revision"`
	// GitRevision is the commit, when the tree is a git checkout.
	GitRevision    string `json:"git_revision,omitempty"`
	GoVersion      string `json:"go_version"`
	NumCPU         int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Seed           uint64 `json:"seed"`
	MeasureVersion int    `json:"measure_version"`
}

// environment is the part of a cohort two compared sides must share.
func (c cohort) environment() string {
	return fmt.Sprintf("go=%s nproc=%d gomaxprocs=%d measure_version=%d", c.GoVersion, c.NumCPU, c.GOMAXPROCS, c.MeasureVersion)
}

// buildOutputs are directories under the root that hold what building and
// running leave behind, not source.
var buildOutputs = map[string]bool{".bench_build": true, ".git": true}

func stampCohort(root string, seed uint64) (cohort, error) {
	rev, err := treeDigest(root)
	if err != nil {
		return cohort{}, err
	}
	return cohort{
		Revision:       rev,
		GitRevision:    gitRevision(root),
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Seed:           seed,
		MeasureVersion: measureVersion,
	}, nil
}

// treeDigest hashes every regular file's path and content under root,
// skipping build outputs.
func treeDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && buildOutputs[e.Name()] {
			return filepath.SkipDir
		}
		if e.Type().IsRegular() {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// gitRevision is HEAD's commit, or "" outside a git checkout.
func gitRevision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// record is one run as appended to results.jsonl.
type record struct {
	Cohort    cohort             `json:"cohort"`
	Workload  string             `json:"workload"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func newRecord(c cohort, workload string, trace int, r result) record {
	m := make(map[string]float64, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = x.value
	}
	return record{Cohort: c, Workload: workload, Trace: trace, Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// checkCohorts refuses a comparison unless both sides were measured in one
// environment, each side at a single revision, over the same seeds per
// workload and trace mode.
func checkCohorts(base, head []record) error {
	if len(base) == 0 || len(head) == 0 {
		return fmt.Errorf("%w: a side has no results", errMixedCohort)
	}
	env := base[0].Cohort.environment()
	for _, side := range [][]record{base, head} {
		rev := side[0].Cohort.Revision
		for _, r := range side {
			if e := r.Cohort.environment(); e != env {
				return fmt.Errorf("%w: environment %q vs %q", errMixedCohort, e, env)
			}
			if r.Cohort.Revision != rev {
				return fmt.Errorf("%w: one side holds revisions %s and %s", errMixedCohort, rev, r.Cohort.Revision)
			}
		}
	}
	seeds := func(recs []record) map[string][]uint64 {
		m := make(map[string][]uint64)
		for _, r := range recs {
			k := fmt.Sprintf("%s/trace%d", r.Workload, r.Trace)
			m[k] = append(m[k], r.Cohort.Seed)
		}
		for _, s := range m {
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		}
		return m
	}
	bs, hs := seeds(base), seeds(head)
	for k, b := range bs {
		if fmt.Sprint(b) != fmt.Sprint(hs[k]) {
			return fmt.Errorf("%w: %s seeds %v vs %v", errMixedCohort, k, b, hs[k])
		}
	}
	for k := range hs {
		if _, ok := bs[k]; !ok {
			return fmt.Errorf("%w: %s measured on one side only", errMixedCohort, k)
		}
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles and flags a head median worse than the base median
// by more than the metric's bound. Exit codes: 0 within bounds, 1 a
// regression, 2 a refused or unreadable comparison.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare BASE.jsonl HEAD.jsonl")
		return 2
	}
	base, err := readRecords(args[0])
	if err == nil {
		var head []record
		if head, err = readRecords(args[1]); err == nil {
			if err = checkCohorts(base, head); err == nil {
				return compareRecords(base, head)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: compare refused: %v\n", err)
	return 2
}

func compareRecords(base, head []record) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: BENCHMARK.json: %v\n", err)
		return 2
	}
	byWorkload := func(recs []record) map[string][]record {
		m := make(map[string][]record)
		for _, r := range recs {
			if r.Trace == 0 {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	bw, hw := byWorkload(base), byWorkload(head)
	code := 0
	fmt.Printf("%-16s %-16s %12s %12s %12s %12s %8s  %s\n", "workload", "metric", "base_median", "base_iqr", "head_median", "head_iqr", "change", "verdict")
	for _, wl := range sortedKeys(bw) {
		for _, m := range spec.EndToEnd {
			var bd, hd Dist
			for _, r := range bw[wl] {
				bd.Add(r.Metrics[m.Name])
			}
			for _, r := range hw[wl] {
				hd.Add(r.Metrics[m.Name])
			}
			bm, hm := bd.Quantile(0.5).Value, hd.Quantile(0.5).Value
			change := 0.0
			if bm != 0 {
				change = (hm - bm) / bm
			}
			worse := change > m.Bound
			if m.Better == "higher" {
				worse = -change > m.Bound
			}
			verdict := "within bound"
			if worse {
				verdict = fmt.Sprintf("WORSE by more than %.0f%%", m.Bound*100)
				code = 1
			}
			fmt.Printf("%-16s %-16s %12.4f %12.4f %12.4f %12.4f %+7.1f%%  %s (n=%d/%d)\n", wl, m.Name,
				bm, bd.Quantile(0.75).Value-bd.Quantile(0.25).Value,
				hm, hd.Quantile(0.75).Value-hd.Quantile(0.25).Value, change*100, verdict, bd.Len(), hd.Len())
		}
	}
	return code
}

// errMixedCohort refuses comparisons across cohorts.
var errMixedCohort = errors.New("mixed cohorts")

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

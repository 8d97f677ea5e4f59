// Command perfbench is the repository's end-to-end benchmark. It assembles
// the whole stack in one process — SDK executor, HTTP submit, web service,
// TCP broker, endpoint agents, engine, result processor and group result
// stream — from the packages' public constructors, drives one seeded
// workload through it for a fixed time, checks every output, and prints
// the metrics as a final JSON line.
//
// Run it from the repository root (the run.sh wrapper builds it there):
//
//	perfbench --workload small-saturate --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics from an untraced run; --trace 1
// reports the per-layer metrics from a traced run (see README.md).
// perfbench -compare BASE.jsonl HEAD.jsonl compares two sets of recorded
// results and refuses mixed cohorts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// lateBoundMS is the open-loop generator's allowed p99 lateness: past it
// the generator, not the system, shaped the arrivals and the run is
// invalid.
const lateBoundMS = 20

// closedRamp lets a closed loop fill its window before measuring.
const closedRamp = time.Second

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: small-saturate, large-fanout or routed-skew")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "measured window in seconds")
		traced   = flag.Int("trace", 0, "0 = end-to-end metrics from an untraced run; 1 = per-layer metrics from a traced run")
		buildDir = flag.String("build-dir", ".bench_build", "directory for results, spans and the agents' sandbox")
		compare  = flag.Bool("compare", false, "compare two result files: perfbench -compare BASE.jsonl HEAD.jsonl")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	c, err := stampCohort(".", *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cohort: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), buildDir: *buildDir}
	var res result
	if *traced == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runPlain(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout, w, c)
	if err := appendRecord(filepath.Join(*buildDir, "results.jsonl"), newRecord(c, w.name, *traced, res)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: record result: %v\n", err)
	}
	final, err := json.Marshal(res.final())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(final))
	if !res.correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

type runConfig struct {
	w        workload
	seed     uint64
	window   time.Duration
	buildDir string
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	notes     []string
	metrics   []metric
}

func (r result) final() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]value, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = value{x.value, x.unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m}
}

func (r result) print(out *os.File, w workload, c cohort) {
	fmt.Fprintf(out, "workload %s: %s\n", w.name, w.why)
	fmt.Fprintf(out, "cohort: revision=%s git=%s go=%s nproc=%d gomaxprocs=%d seed=%d measure_version=%d\n",
		c.Revision, c.GitRevision, c.GoVersion, c.NumCPU, c.GOMAXPROCS, c.Seed, c.MeasureVersion)
	for _, n := range r.notes {
		fmt.Fprintf(out, "note: %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintln(out, m.describe())
	}
}

// deployFor maps a workload onto deployment options.
func deployFor(w workload, buildDir string, p *probes) (deployOpts, error) {
	scratch, err := scratchDir(buildDir)
	if err != nil {
		return deployOpts{}, err
	}
	o := deployOpts{endpoints: w.endpoints, workers: w.workers, group: w.group, probes: p, scratch: scratch}
	if w.slowDelay > 0 || w.fastDelay > 0 {
		o.delay = w.delayOf
	}
	return o, nil
}

// measured is one window's outcome.
type measured struct {
	t          *tally
	win        window
	s          *sampler
	rt         runtimeWindow
	violations int
	firstViol  string
}

// measure drives the workload on d for one window after the closed-loop
// ramp, then checks the state census.
func measure(d *deployment, w workload, seed uint64, length time.Duration, p *probes) measured {
	runtime.GC()
	start := time.Now()
	if w.outstanding > 0 {
		start = start.Add(closedRamp)
	}
	win := window{start: start, end: start.Add(length)}
	s := startSampler(d, p != nil, win)
	rtCh := make(chan runtimeWindow, 1)
	go func() {
		time.Sleep(time.Until(win.start))
		a := readRuntime()
		time.Sleep(time.Until(win.end))
		rtCh <- readRuntime().sub(a)
	}()
	inputs := w.inputs(seed)
	var t *tally
	if w.outstanding > 0 {
		t = runClosed(d, w, inputs, win, p)
	} else {
		t = runOpen(d, w, inputs, win, p)
	}
	rt := <-rtCh
	s.finish()
	v, first := census(d, t)
	return measured{t: t, win: win, s: s, rt: rt, violations: v, firstViol: first}
}

// judge turns a measurement into the run's verdict and notes.
func judge(w workload, m measured) result {
	t := m.t
	r := result{attempted: t.attempted, failed: min(t.failures()+m.violations, t.attempted)}
	r.notes = append(r.notes, fmt.Sprintf("attempted=%d correct=%d refused=%d timed_out=%d failed=%d wrong_output=%d census_violations=%d",
		t.attempted, t.correct, t.refused, t.timedOut, t.failed, t.wrong, m.violations))
	if t.firstErr != "" {
		r.notes = append(r.notes, "first failure: "+t.firstErr)
	}
	if m.firstViol != "" {
		r.notes = append(r.notes, "first census violation: "+m.firstViol)
	}
	r.correct = r.failed == 0 && r.attempted > 0
	if w.outstanding == 0 {
		late := t.lateness.Quantile(0.99)
		r.notes = append(r.notes, fmt.Sprintf("generator lateness %s ms, bound %d ms", late, lateBoundMS))
		if late.Value > lateBoundMS {
			r.correct = false
			r.notes = append(r.notes, "INVALID: the generator ran late past its bound")
		}
	}
	return r
}

// setupsPerRun is how many deployments an untraced run assembles; setup_s
// is their median, so the first, cold assemblies and one slow one do not
// move it.
const setupsPerRun = 11

// settleBeforeSetup is the pause before each assembly.
const settleBeforeSetup = 50 * time.Millisecond

// runPlain is the untraced run: it assembles setupsPerRun deployments,
// keeps the last, and measures the end-to-end metrics on it.
func runPlain(cfg runConfig) (result, error) {
	opts, err := deployFor(cfg.w, cfg.buildDir, nil)
	if err != nil {
		return result{}, err
	}
	var setup Dist
	var d *deployment
	for i := 0; i < setupsPerRun; i++ {
		// Let the previous assembly's teardown finish and collect its
		// garbage first: a real set-up does not inherit a heap full of
		// torn-down deployments.
		time.Sleep(settleBeforeSetup)
		runtime.GC()
		t0 := time.Now()
		dd, err := assemble(opts)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setup.Add(time.Since(t0).Seconds())
		if i < setupsPerRun-1 {
			dd.close()
			continue
		}
		d = dd
	}
	defer d.close()
	m := measure(d, cfg.w, cfg.seed, cfg.window, nil)
	r := judge(cfg.w, m)
	t := m.t
	tps := float64(t.inWindow) / m.win.seconds()
	p50, p99 := t.latency.Quantile(0.5), t.latency.Quantile(0.99)
	if !p99.Trustworthy() {
		r.notes = append(r.notes, fmt.Sprintf("latency p99 has only %d samples beyond it", p99.Beyond()))
	}
	success := Ratio{Num: float64(r.attempted - r.failed), Den: float64(r.attempted), NumLabel: "succeeded", DenLabel: "attempted"}
	failedShare := Ratio{Num: float64(r.failed), Den: float64(r.attempted), NumLabel: "failed+refused+timed_out+wrong+census", DenLabel: "attempted"}
	r.notes = append(r.notes, fmt.Sprintf("failed_share %.6f [%s]", failedShare.Value(), failedShare.Base()))
	r.notes = append(r.notes, fmt.Sprintf("setup seconds per assembly: %.4f", setup.vals))
	s := setup.Quantile(0.5)
	r.metrics = []metric{
		{name: "setup_s", value: s.Value, unit: "s", n: s.N, base: "median of assemblies"},
		{name: "tasks_per_s", value: tps, unit: "tasks/s", n: t.inWindow, base: fmt.Sprintf("correct results resolved in the %.1f s window", m.win.seconds())},
		{name: "latency_p50_ms", value: p50.Value, unit: "ms", n: p50.N, base: latencyBase(cfg.w)},
		{name: "latency_p99_ms", value: p99.Value, unit: "ms", n: p99.N, base: latencyBase(cfg.w)},
		{name: "success_share", value: success.Value(), unit: "ratio", n: -1, base: success.Base()},
		{name: "heap_peak_mib", value: float64(m.s.heapPeak) / (1 << 20), unit: "MiB", n: -1, base: "peak live heap, sampled every 10ms in the window"},
	}
	return r, nil
}

func latencyBase(w workload) string {
	if w.outstanding > 0 {
		return fmt.Sprintf("closed loop of %d: submit to resolve", w.outstanding)
	}
	return fmt.Sprintf("open loop at %g/s: due time to resolve", w.rate)
}

// runTraced measures an untraced half window for the overhead baseline,
// then a traced half window on a deployment with every probe in place, and
// reports the per-layer metrics.
func runTraced(cfg runConfig) (result, error) {
	half := cfg.window / 2
	opts, err := deployFor(cfg.w, cfg.buildDir, nil)
	if err != nil {
		return result{}, err
	}
	d, err := assemble(opts)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	plain := measure(d, cfg.w, cfg.seed, half, nil)
	d.close()
	plainTPS := float64(plain.t.inWindow) / plain.win.seconds()

	p := newProbes()
	if opts, err = deployFor(cfg.w, cfg.buildDir, p); err != nil {
		return result{}, err
	}
	if d, err = assemble(opts); err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	defer d.close()
	m := measure(d, cfg.w, cfg.seed, half, p)
	r := judge(cfg.w, m)
	if plain.violations > 0 || plain.t.failures() > 0 {
		r.correct = false
		r.notes = append(r.notes, "the untraced baseline half had failures")
	}
	p.mu.Lock()
	spans := analyzeSpans(p.tasks)
	path := filepath.Join(cfg.buildDir, "spans-"+cfg.w.name+".jsonl")
	n, err := writeSpans(path, p.tasks)
	total := len(p.tasks)
	p.mu.Unlock()
	tr := tracedRun{
		w: cfg.w, d: d, p: p, s: m.s, t: m.t, win: m.win, rt: m.rt, spans: spans,
		traceTPS: float64(m.t.inWindow) / m.win.seconds(), plainTPS: plainTPS,
	}
	r.metrics = layerMetrics(tr)
	r.notes = append(r.notes, notMeasured(cfg.w)...)
	r.notes = append(r.notes, spanBreakdown(spans))
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	r.notes = append(r.notes, fmt.Sprintf("spans of %d of %d traced tasks written to %s", n, total, path))
	return r, nil
}

// notMeasured records the per-layer metrics a workload cannot exercise or
// that the probes cannot see from outside.
func notMeasured(w workload) []string {
	notes := []string{
		"objectstore.put_ms_p50 times agent-side spills only: the service spills submit payloads in process, behind no interface",
		"result_path self time is the service's result processor plus both broker hops; the split needs spans inside the program",
	}
	if !w.group {
		notes = append(notes, "placement.* read 0: the workload targets one endpoint, not a routing group")
	}
	if w.outstanding > 0 {
		notes = append(notes, "harness.generator_late_ms_p99 reads 0: a closed loop has no due times")
	}
	return notes
}

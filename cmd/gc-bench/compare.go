package main

import (
	"encoding/json"
	"fmt"
	"os"

	"globuscompute/internal/experiments"
)

// compareTolerance is the relative regression budget: a shared arm may lose
// up to this fraction of tasks/s (or gain this fraction of p50/p99 latency)
// before the comparison fails.
const compareTolerance = 0.10

// latencySlackUS is the absolute latency floor below which percentile
// movement is treated as noise: a p50 going 80us -> 120us is a scheduler
// wobble, not a regression, so the rise must clear both the relative
// tolerance and this many microseconds. The floor is sized to the sampling
// error of the smoke run: p99 over a paced arm is its ~20 worst samples,
// and back-to-back runs of identical code on a shared machine move the
// full-agent (ep-*) and fsync-bound (wal-on) paced tails by 1.3-2.9ms —
// engine scheduling, GC, and disk contention, not code. The floor sits
// just above that measured identical-code wobble.
const latencySlackUS = 3000

// compareSaturation diffs two saturation JSON artifacts (old, new), prints a
// per-arm table, and returns an error if any arm present in both files
// regressed: tasks/s down more than the tolerance, or p50/p99 up more than
// the tolerance by more than the slack floor.
func compareSaturation(oldPath, newPath string) error {
	oldRes, err := readSaturation(oldPath)
	if err != nil {
		return err
	}
	newRes, err := readSaturation(newPath)
	if err != nil {
		return err
	}

	type key struct {
		transport, mode string
		batch, offered  int
	}
	index := make(map[key]experiments.SaturationPoint, len(oldRes.Points))
	for _, p := range oldRes.Points {
		index[key{p.Transport, p.Mode, p.Batch, p.OfferedPerS}] = p
	}

	// Saturation tasks/s is only comparable within one measurement
	// methodology: version 0 recorded short bursts, version 1+ records
	// calibrated sustained rates. Across a version bump, gate only the
	// paced arms (whose methodology never changed) and let the new file
	// become the baseline for the next compare.
	skipSaturation := oldRes.MeasureVersion != newRes.MeasureVersion

	fmt.Printf("# saturation compare: %s -> %s (tolerance %.0f%%)\n", oldPath, newPath, compareTolerance*100)
	if skipSaturation {
		fmt.Printf("# measure_version %d -> %d: saturation (offered=max) arms re-baselined, paced arms still gated\n",
			oldRes.MeasureVersion, newRes.MeasureVersion)
	}
	fmt.Printf("%-8s %-12s %6s %10s | %12s %10s %10s | %s\n",
		"transport", "mode", "batch", "offered/s", "tasks/s", "p50", "p99", "verdict")
	shared, failures := 0, 0
	for _, np := range newRes.Points {
		op, ok := index[key{np.Transport, np.Mode, np.Batch, np.OfferedPerS}]
		if !ok {
			continue // new arm with no baseline: informational only
		}
		if skipSaturation && np.OfferedPerS == 0 {
			continue
		}
		shared++
		var bad []string
		if op.AchievedPerS > 0 && np.AchievedPerS < op.AchievedPerS*(1-compareTolerance) {
			bad = append(bad, fmt.Sprintf("tasks/s %.0f -> %.0f", op.AchievedPerS, np.AchievedPerS))
		}
		// Latency percentiles are only a service-time signal on rate-limited
		// arms. At saturation (offered = max) they measure queue depth at
		// whatever rate the machine sustained that day — tasks/s already
		// gates that arm, and its percentiles swing wildly between runs of
		// identical code. Fleet route arms are gated on the p2c-vs-random
		// ratio below instead: their absolute percentiles are queue dynamics
		// over thousands of simulated endpoints, noisy run to run.
		if np.OfferedPerS > 0 && np.Transport != "fleet" {
			for _, lat := range []struct {
				name     string
				old, new float64
			}{{"p50", op.P50US, np.P50US}, {"p99", op.P99US, np.P99US}} {
				if lat.new > lat.old*(1+compareTolerance) && lat.new-lat.old > latencySlackUS {
					bad = append(bad, fmt.Sprintf("%s %.0fus -> %.0fus", lat.name, lat.old, lat.new))
				}
			}
		}
		verdict := "ok"
		if len(bad) > 0 {
			failures++
			verdict = "REGRESSED"
			for _, b := range bad {
				verdict += " [" + b + "]"
			}
		}
		offered := "max"
		if np.OfferedPerS > 0 {
			offered = fmt.Sprintf("%d", np.OfferedPerS)
		}
		fmt.Printf("%-8s %-12s %6d %10s | %5.0f->%-6.0f %4.0f->%-5.0f %4.0f->%-5.0f | %s\n",
			np.Transport, np.Mode, np.Batch, offered,
			op.AchievedPerS, np.AchievedPerS, op.P50US, np.P50US, op.P99US, np.P99US, verdict)
	}
	// Headline ratio fields gate like arms when both files record them: the
	// dedup byte reduction is deterministic byte accounting and always
	// gates. Ratios with a floor must also clear it absolutely in the new
	// file — the route p99 improvement, for example, must stay >= 2x (p2c
	// p99 <= 0.5x random p99) no matter what the baseline recorded.
	for _, r := range []struct {
		name     string
		old, new float64
		floor    float64
	}{
		{"dedup_byte_reduction_fanout16", oldRes.DedupByteReduction, newRes.DedupByteReduction, 0},
		// Queue dynamics over thousands of simulated endpoints make the p99
		// ratio noisy run to run, so it gates on its absolute floor only.
		{"route_p2c_p99_improvement", 0, newRes.RouteP2CImprovement, 2.0},
		{"route_p2c_throughput_ratio", 0, newRes.RouteP2CThroughput, 0.95},
	} {
		if r.new <= 0 {
			continue
		}
		if r.old <= 0 && r.floor <= 0 {
			continue
		}
		shared++
		verdict := "ok"
		if r.old > 0 && r.new < r.old*(1-compareTolerance) {
			failures++
			verdict = fmt.Sprintf("REGRESSED [%.2fx -> %.2fx]", r.old, r.new)
		} else if r.floor > 0 && r.new < r.floor {
			failures++
			verdict = fmt.Sprintf("REGRESSED [%.2fx < floor %.2fx]", r.new, r.floor)
		}
		fmt.Printf("%-38s %.2fx -> %.2fx | %s\n", r.name, r.old, r.new, verdict)
	}
	if shared == 0 {
		return fmt.Errorf("no shared arms between %s and %s", oldPath, newPath)
	}
	fmt.Printf("# %d shared arm(s), %d regressed\n", shared, failures)
	if failures > 0 {
		return fmt.Errorf("%d of %d shared arm(s) regressed beyond %.0f%%", failures, shared, compareTolerance*100)
	}
	return nil
}

func readSaturation(path string) (*experiments.SaturationResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res experiments.SaturationResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("%s: no points", path)
	}
	return &res, nil
}

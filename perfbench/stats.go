package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Quantile is one percentile read together with the number of samples it
// was read from, so a p99 over 40 samples is never mistaken for one over
// 40,000.
type Quantile struct {
	P     float64
	Value float64
	N     int
}

// Beyond is how many samples lie above the percentile.
func (q Quantile) Beyond() int { return int(math.Floor(float64(q.N) * (1 - q.P))) }

// Trustworthy reports whether at least ten samples lie beyond the
// percentile; below that the read is one or two unlucky samples.
func (q Quantile) Trustworthy() bool { return q.Beyond() >= 10 }

func (q Quantile) String() string {
	return fmt.Sprintf("p%g=%.4f (n=%d, %d beyond)", q.P*100, q.Value, q.N, q.Beyond())
}

// Dist collects samples of one quantity. It is not safe for concurrent use.
type Dist struct {
	vals   []float64
	sorted bool
}

func (d *Dist) Add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

// AddDuration adds d in milliseconds.
func (d *Dist) AddDuration(v time.Duration) { d.Add(float64(v) / float64(time.Millisecond)) }

func (d *Dist) Len() int { return len(d.vals) }

// Quantile returns the nearest-rank percentile p (0 < p <= 1): the smallest
// sample with at least a share p of the samples at or below it. An empty
// distribution reads 0 with N=0.
func (d *Dist) Quantile(p float64) Quantile {
	n := len(d.vals)
	if n == 0 {
		return Quantile{P: p}
	}
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return Quantile{P: p, Value: d.vals[rank-1], N: n}
}

// Ratio is a share or rate that keeps its numerator and denominator, so a
// report can always state the base a ratio was computed over.
type Ratio struct {
	Num, Den   float64
	NumLabel   string
	DenLabel   string
	ScaleLabel string  // e.g. "per 1000 tasks"; empty for a plain ratio
	Scale      float64 // multiplier applied to Num/Den (0 means 1)
}

// Value is Num/Den times Scale; a zero base reads 0.
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	s := r.Scale
	if s == 0 {
		s = 1
	}
	return r.Num / r.Den * s
}

// Base describes what the ratio was computed over.
func (r Ratio) Base() string {
	b := fmt.Sprintf("%s=%g / %s=%g", r.NumLabel, r.Num, r.DenLabel, r.Den)
	if r.ScaleLabel != "" {
		b += ", " + r.ScaleLabel
	}
	return b
}

// schedule is an open-loop arrival schedule: task i is due at start +
// i/rate, whether or not the generator keeps up.
type schedule struct {
	start time.Time
	rate  float64 // tasks per second
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// dueLatency is a task's latency measured from when it was due, not from
// when the generator got round to submitting it: a stall in the generator
// then shows up in every task it delayed.
func dueLatency(due, resolved time.Time) time.Duration { return resolved.Sub(due) }

// interval is a half-open time span [start, end) in nanoseconds since an
// arbitrary origin.
type interval struct{ start, end int64 }

// unionLength is the total length covered by the intervals after clipping
// each to [lo, hi); overlaps count once.
func unionLength(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			if i > 0 {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	if len(clipped) > 0 {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it that its children
// cover (children clipped to the parent; overlapping children count once).
func selfTime(parent interval, children []interval) int64 {
	return (parent.end - parent.start) - unionLength(children, parent.start, parent.end)
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
)

// workload is one benchmark input mix.
type workload struct {
	name string
	why  string

	endpoints int
	workers   int
	group     bool

	// outstanding > 0 makes a closed loop with that many tasks in flight;
	// otherwise tasks arrive open-loop at rate per second.
	outstanding int
	rate        float64

	// slowMembers of the endpoints take slowDelay per task, the rest
	// fastDelay (0 = no added service time).
	slowMembers          int
	fastDelay, slowDelay time.Duration

	// inputs builds the argument of task seq and the check of its output.
	inputs func(seed uint64) inputSource
}

// inputSource yields the seeded argument and expected output of each task.
type inputSource interface {
	input(seq int) taskInput
}

type taskInput struct {
	arg string
	// want is the exact expected output; for large payloads wantSum is
	// compared instead.
	want    []byte
	wantSum [32]byte
	large   bool
}

func (in taskInput) check(out []byte) error {
	if in.large {
		if sha256.Sum256(out) != in.wantSum {
			return fmt.Errorf("output of %d bytes: sha256 mismatch", len(out))
		}
		return nil
	}
	if !bytes.Equal(out, in.want) {
		return fmt.Errorf("output %.40q, want %.40q", out, in.want)
	}
	return nil
}

const (
	largePayloadBytes = 256 << 10 // argument size, 4x the 64 KiB inline threshold
	fanout            = 16        // consecutive tasks sharing one payload
)

var workloads = []workload{
	{
		name:        "small-saturate",
		why:         "closed loop of 1024 tiny identity tasks on one 4-worker endpoint: no compute, no spill, so throughput is the per-task cost of sdk, webservice, broker, endpoint and result stream",
		endpoints:   1,
		workers:     4,
		outstanding: 1024,
		inputs:      func(seed uint64) inputSource { return smallInputs{seed} },
	},
	{
		name:        "large-fanout",
		why:         "closed loop of 64 echo tasks with 256 KiB payloads, each shared by 16 tasks: spill, object fetch and the dedup cache do most of the work",
		endpoints:   1,
		workers:     4,
		outstanding: 64,
		inputs:      func(seed uint64) inputSource { return newLargeInputs(seed) },
	},
	{
		name:        "routed-skew",
		why:         "open loop at 400 tasks/s into a p2c routing group of 8 endpoints, 2 of them 10x slower: placement and queueing set the tail; bypassed elsewhere",
		endpoints:   8,
		workers:     8,
		group:       true,
		rate:        400,
		slowMembers: 2,
		fastDelay:   10 * time.Millisecond,
		slowDelay:   100 * time.Millisecond,
		inputs:      func(seed uint64) inputSource { return smallInputs{seed} },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// delayOf gives member i's added service time.
func (w workload) delayOf(i int) time.Duration {
	if i < w.slowMembers {
		return w.slowDelay
	}
	return w.fastDelay
}

// mix64 is splitmix64: a seeded, stateless hash from (seed, seq) to the
// task's input, so every task's input is known without replaying a stream.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// smallInputs are 16-hex-digit strings; identity echoes them as JSON.
type smallInputs struct{ seed uint64 }

func (s smallInputs) input(seq int) taskInput {
	arg := fmt.Sprintf("%016x", mix64(s.seed<<32^uint64(seq)))
	return taskInput{arg: arg, want: []byte(`"` + arg + `"`)}
}

// largeInputs are 256 KiB hex strings, one per group of 16 consecutive
// tasks, generated on demand and kept for the few groups in flight.
type largeInputs struct {
	seed uint64
	mu   sync.Mutex
	byID map[int]taskInput
}

func newLargeInputs(seed uint64) *largeInputs {
	return &largeInputs{seed: seed, byID: make(map[int]taskInput)}
}

func (l *largeInputs) input(seq int) taskInput {
	g := seq / fanout
	l.mu.Lock()
	defer l.mu.Unlock()
	if in, ok := l.byID[g]; ok {
		return in
	}
	src := rand.New(rand.NewPCG(l.seed, uint64(g)))
	raw := make([]byte, largePayloadBytes/2)
	for i := 0; i < len(raw); i += 8 {
		binary.LittleEndian.PutUint64(raw[i:], src.Uint64())
	}
	arg := hex.EncodeToString(raw)
	in := taskInput{arg: arg, large: true, wantSum: sha256.Sum256([]byte(`"` + arg + `"`))}
	l.byID[g] = in
	// Closed loops keep at most a few groups in flight; drop old ones.
	for old := range l.byID {
		if old < g-8 {
			delete(l.byID, old)
		}
	}
	return in
}

// tally is one worker's share of a run's outcomes.
type tally struct {
	// inWindow counts correct results resolved inside the window.
	inWindow int

	attempted, correct        int
	refused, timedOut, failed int
	wrong                     int
	firstErr                  string
	latency                   Dist // ms, tasks resolved (or due) in the window
	lateness                  Dist // ms, open loop only
	ids                       []protocol.UUID
}

func (t *tally) fail(kind *int, err error) {
	*kind++
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.correct += o.correct
	t.inWindow += o.inWindow
	t.refused += o.refused
	t.timedOut += o.timedOut
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
	t.latency.vals = append(t.latency.vals, o.latency.vals...)
	t.latency.sorted = false
	t.lateness.vals = append(t.lateness.vals, o.lateness.vals...)
	t.lateness.sorted = false
	t.ids = append(t.ids, o.ids...)
}

func (t *tally) failures() int { return t.refused + t.timedOut + t.failed + t.wrong }

// failedLatency is the latency charged to a task that failed, was refused
// or timed out: it misses every latency limit.
const failedLatency = drainTimeout

// drainTimeout bounds the wait for outstanding tasks after the window.
const drainTimeout = 60 * time.Second

// window is the measured interval of a run.
type window struct{ start, end time.Time }

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }
func (w window) seconds() float64          { return w.end.Sub(w.start).Seconds() }

// settle waits for one future and checks its output, charging the outcome
// to t. It returns the resolution time and the task's ID ("" when the
// service never assigned one).
func settle(ctx context.Context, t *tally, fut *sdk.Future, in taskInput) (time.Time, protocol.UUID, bool) {
	select {
	case <-fut.Done():
	case <-ctx.Done():
		t.fail(&t.timedOut, fmt.Errorf("task unresolved after drain timeout"))
		return time.Now(), "", false
	}
	resolved := time.Now()
	id, err := fut.TaskID(ctx)
	if err == nil {
		t.ids = append(t.ids, id)
	}
	out, err := fut.Result(ctx)
	if err != nil {
		t.fail(&t.failed, err)
		return resolved, id, false
	}
	if err := in.check(out); err != nil {
		t.fail(&t.wrong, err)
		return resolved, id, false
	}
	t.correct++
	return resolved, id, true
}

// runClosed keeps w.outstanding tasks in flight until win.end, then drains.
// Throughput counts correct results resolved inside the window; latency is
// submit-to-resolve of those tasks.
func runClosed(d *deployment, w workload, inputs inputSource, win window, p *probes) *tally {
	ctx, cancel := context.WithDeadline(context.Background(), win.end.Add(drainTimeout))
	defer cancel()
	var next atomic.Int64
	parts := make([]*tally, w.outstanding)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = &tally{}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(win.end) {
				in := inputs.input(int(next.Add(1) - 1))
				t.attempted++
				t0 := time.Now()
				fut, err := d.ex.Submit(d.fn, in.arg)
				t1 := time.Now()
				if err != nil {
					t.fail(&t.refused, err)
					if win.contains(t1) {
						t.latency.AddDuration(failedLatency)
					}
					continue
				}
				resolved, id, ok := settle(ctx, t, fut, in)
				p.markClient(id, t0, t1, resolved)
				if !win.contains(resolved) {
					continue
				}
				if ok {
					t.inWindow++
					t.latency.AddDuration(resolved.Sub(t0))
				} else {
					t.latency.AddDuration(failedLatency)
				}
			}
		}(parts[i])
	}
	wg.Wait()
	total := &tally{}
	for _, t := range parts {
		total.merge(t)
	}
	return total
}

// runOpen submits one task every 1/w.rate seconds from win.start to
// win.end from a single generator goroutine, timing each task from its due
// time, then waits for every task to resolve.
func runOpen(d *deployment, w workload, inputs inputSource, win window, p *probes) *tally {
	ctx, cancel := context.WithDeadline(context.Background(), win.end.Add(drainTimeout))
	defer cancel()
	sched := schedule{start: win.start, rate: w.rate}
	gen := &tally{}
	var (
		mu      sync.Mutex
		settled = &tally{}
		wg      sync.WaitGroup
	)
	for i := 0; ; i++ {
		due := sched.due(i)
		if !due.Before(win.end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		in := inputs.input(i)
		gen.attempted++
		t0 := time.Now()
		gen.lateness.AddDuration(t0.Sub(due))
		fut, err := d.ex.Submit(d.fn, in.arg)
		t1 := time.Now()
		if err != nil {
			gen.fail(&gen.refused, err)
			gen.latency.AddDuration(failedLatency)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			resolved, id, ok := settle(ctx, &t, fut, in)
			p.markClient(id, t0, t1, resolved)
			if ok {
				if win.contains(resolved) {
					t.inWindow++
				}
				t.latency.AddDuration(dueLatency(due, resolved))
			} else {
				t.latency.AddDuration(failedLatency)
			}
			mu.Lock()
			settled.merge(&t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	gen.merge(settled)
	return gen
}

// census checks, once the run has quiesced, that every attempted task the
// service accepted sits in exactly one terminal state, successful, and that
// the store holds no task outside a terminal state. It returns the number
// of violations and the first one.
func census(d *deployment, t *tally) (int, string) {
	violations := 0
	first := ""
	note := func(format string, args ...any) {
		violations++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	recs := d.store.GetTaskRecords(t.ids)
	for _, id := range t.ids {
		rec, ok := recs[id]
		switch {
		case !ok:
			note("task %s missing from the state store", id)
		case rec.State != protocol.StateSuccess:
			note("task %s in state %s", id, rec.State)
		}
	}
	terminal := 0
	for st, n := range d.store.CountTasksByState() {
		if st.Terminal() {
			terminal += n
		} else {
			note("%d tasks still in non-terminal state %s", n, st)
		}
	}
	// The warm-up task is the one terminal task the run did not attempt.
	if want := len(t.ids) + 1; terminal != want {
		note("state census holds %d terminal tasks, want %d", terminal, want)
	}
	return violations, first
}

// taskIDOf reads the task_id field that leads every task and result body
// (the wire encodes both as JSON with task_id first) without decoding the
// rest of the body.
func taskIDOf(body []byte) string {
	const key = `"task_id":"`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

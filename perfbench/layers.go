package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/metrics"
)

// metric is one reported number with its unit and, where it is a
// percentile or a ratio, the sample count or base it was read from.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind a timing or percentile; -1 when not a sample
	base  string // the base of a ratio, or why a metric could not be measured
}

// --- samplers ---

// sampler polls state the layers expose while a run measures: the live Go
// heap (bytes the last GC marked live) always, and in the traced run the broker queue depths, the state store's
// in-flight census and the agents' egress backlog.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	mu                                                     sync.Mutex
	heapPeak                                               uint64
	depthTasks, depthResults, depthGroup, inflight, egress Dist
}

const sampleEvery = 10 * time.Millisecond

func startSampler(d *deployment, traced bool, win window) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	heap := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				if !win.contains(now) {
					continue
				}
				rtmetrics.Read(heap)
				s.mu.Lock()
				s.heapPeak = max(s.heapPeak, heap[0].Value.Uint64())
				s.mu.Unlock()
				if traced {
					s.sampleLayers(d)
				}
			}
		}
	}()
	return s
}

func (s *sampler) sampleLayers(d *deployment) {
	var tasks, results, group float64
	for _, q := range d.brk.Queues() {
		n, err := d.brk.Depth(q)
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(q, ".dlq"):
		case strings.HasPrefix(q, "tasks."):
			tasks += float64(n)
		case strings.HasPrefix(q, "results.group."):
			group += float64(n)
		case strings.HasPrefix(q, "results."):
			results += float64(n)
		}
	}
	inflight := 0
	for st, n := range d.store.CountTasksByState() {
		if !st.Terminal() {
			inflight += n
		}
	}
	egress := 0
	for _, a := range d.agents {
		egress += a.agent.SnapshotLoad().EgressBacklog
	}
	s.mu.Lock()
	s.depthTasks.Add(tasks)
	s.depthResults.Add(results)
	s.depthGroup.Add(group)
	s.inflight.Add(float64(inflight))
	s.egress.Add(float64(egress))
	s.mu.Unlock()
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// runtimeWindow reads the allocator and GC CPU counters at the window's
// edges.
type runtimeWindow struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeWindow {
	samples := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	val := func(s rtmetrics.Sample) float64 {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s.Value.Uint64())
		case rtmetrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeWindow{val(samples[0]), val(samples[1]), val(samples[2])}
}

func (r runtimeWindow) sub(o runtimeWindow) runtimeWindow {
	return runtimeWindow{r.allocBytes - o.allocBytes, r.gcCPU - o.gcCPU, r.totalCPU - o.totalCPU}
}

// --- spans ---

// span is one layer interval of one task, derived from its boundary
// crossings.
type span struct {
	name   string
	layer  string
	parent string // "" for the task root
	iv     interval
}

// taskSpans turns one task's crossings into its spans. The root covers
// the task from its Submit call until its future resolved; every other
// span is a child of the root except the object fetches, which nest in the
// runner and the result resolution that made them.
func taskSpans(t *taskTrace) []span {
	out := make([]span, 0, 13)
	add := func(name, layer, parent string, s, e int64) {
		if s > 0 && e >= s {
			out = append(out, span{name, layer, parent, interval{s, e}})
		}
	}
	add("task", "harness", "", t.enqStart, t.resolved)
	add("sdk.enqueue", "sdk", "task", t.enqStart, t.enqEnd)
	add("sdk.batch_wait", "sdk", "task", t.enqEnd, t.httpStart)
	add("webservice.submit", "webservice", "task", t.httpStart, t.httpEnd)
	add("broker.task_transit", "broker", "task", t.httpEnd, t.agentDeliver)
	add("engine.queue", "engine", "task", t.agentDeliver, t.execStart)
	add("engine.exec", "engine", "task", t.execStart, t.execEnd)
	add("objectstore.get_input", "objectstore", "engine.exec", t.getInStart, t.getInEnd)
	add("endpoint.egress", "endpoint", "task", t.execEnd, t.pubStart)
	add("broker.agent_publish", "broker", "task", t.pubStart, t.pubEnd)
	add("result_path", "result_path", "task", t.pubEnd, t.sdkDeliver)
	add("sdk.resolve", "sdk", "task", t.sdkDeliver, t.resolved)
	add("objectstore.get_result", "objectstore", "sdk.resolve", t.getOutStart, t.getOutEnd)
	return out
}

// selfTimeLayers lists, in path order, the layers whose self time the
// traced run reports.
var selfTimeLayers = []string{"sdk", "webservice", "broker", "engine", "objectstore", "endpoint", "result_path"}

// spanStats sums self time per layer over every task with a root span,
// and the root time no layer span covers.
type spanStats struct {
	tasks        int
	self         map[string]int64 // by layer
	selfBySpan   map[string]int64
	rootTotal    int64
	unattributed int64
}

func analyzeSpans(traces map[string]*taskTrace) spanStats {
	st := spanStats{self: make(map[string]int64), selfBySpan: make(map[string]int64)}
	for _, t := range traces {
		spans := taskSpans(t)
		if len(spans) == 0 || spans[0].parent != "" || spans[0].name != "task" {
			continue
		}
		st.tasks++
		for _, s := range spans {
			var kids []interval
			for _, c := range spans {
				if c.parent == s.name {
					kids = append(kids, c.iv)
				}
			}
			self := selfTime(s.iv, kids)
			if s.parent == "" {
				st.rootTotal += s.iv.end - s.iv.start
				st.unattributed += self
				continue
			}
			st.self[s.layer] += self
			st.selfBySpan[s.name] += self
		}
	}
	return st
}

// maxWrittenTasks bounds the span file; the analysis uses every task.
const maxWrittenTasks = 5000

// writeSpans writes up to maxWrittenTasks tasks' spans as JSON lines (name,
// layer, task, id, parent id, start and end in ns since the run's origin),
// in task-ID order. It returns the number of tasks written.
func writeSpans(path string, traces map[string]*taskTrace) (int, error) {
	ids := make([]string, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(ids) > maxWrittenTasks {
		ids = ids[:maxWrittenTasks]
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Task   string `json:"task"`
		ID     int    `json:"id"`
		Parent int    `json:"parent"`
		Name   string `json:"name"`
		Layer  string `json:"layer"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for _, id := range ids {
		spans := taskSpans(traces[id])
		index := make(map[string]int, len(spans))
		for i, s := range spans {
			index[s.name] = i
		}
		for i, s := range spans {
			parent := -1
			if j, ok := index[s.parent]; ok {
				parent = j
			}
			if err := enc.Encode(line{id, i, parent, s.name, s.layer, s.iv.start, s.iv.end}); err != nil {
				f.Close()
				return 0, err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(ids), f.Close()
}

// --- per-layer metrics ---

// counterSum adds every counter of reg whose name starts with prefix.
func counterSum(reg *metrics.Registry, prefix string) float64 {
	var sum float64
	for name, v := range reg.Snapshot() {
		if strings.HasPrefix(name, prefix) {
			sum += float64(v)
		}
	}
	return sum
}

// tracedRun is everything the traced phase hands the per-layer report.
type tracedRun struct {
	w        workload
	d        *deployment
	p        *probes
	s        *sampler
	t        *tally
	win      window
	rt       runtimeWindow // runtime counters over the window
	spans    spanStats
	traceTPS float64
	plainTPS float64
}

// layerMetrics computes every per-layer metric of a traced run. Ratios are
// over the tasks the service recorded (the run's plus the warm-up task)
// unless stated.
func layerMetrics(r tracedRun) []metric {
	var out []metric
	d, p, s := r.d, r.p, r.s
	tasks := float64(len(r.t.ids) + 1)
	q := func(name, unit string, dist *Dist, pct float64) {
		qq := dist.Quantile(pct)
		m := metric{name: name, value: qq.Value, unit: unit, n: qq.N}
		if qq.N == 0 {
			m.base = "no samples"
		}
		out = append(out, m)
	}
	ratio := func(name, unit string, rr Ratio) {
		out = append(out, metric{name: name, value: rr.Value(), unit: unit, n: -1, base: rr.Base()})
	}
	perTask := func(num float64, label string) Ratio {
		return Ratio{Num: num, Den: tasks, NumLabel: label, DenLabel: "tasks"}
	}
	perKTask := func(num float64, label string) Ratio {
		rr := perTask(num, label)
		rr.Scale, rr.ScaleLabel = 1000, "per 1000 tasks"
		return rr
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()

	// Per-task distributions derived from the boundary crossings.
	var queueMS, execMS Dist
	for _, t := range p.tasks {
		if t.agentDeliver > 0 && t.execStart >= t.agentDeliver {
			queueMS.Add(float64(t.execStart-t.agentDeliver) / 1e6)
		}
		if t.execStart > 0 && t.execEnd >= t.execStart {
			execMS.Add(float64(t.execEnd-t.execStart) / 1e6)
		}
	}

	// sdk
	q("sdk.enqueue_us_p50", "us", &p.enqueueUS, 0.5)
	ratio("sdk.submit_requests_per_ktask", "count", perKTask(float64(p.submitReqs.Load()), "submit_requests"))
	ratio("sdk.stream_acks_per_result", "count", Ratio{Num: float64(p.sdkAcks.Load()), Den: float64(p.sdkResults.Load()), NumLabel: "stream_acks", DenLabel: "streamed_results"})
	q("sdk.stream_ack_ms_p50", "ms", &p.sdkAckMS, 0.5)
	out = append(out, metric{name: "sdk.submit_retries", value: float64(d.client.Retries.Load()), unit: "count", n: -1})

	// webservice
	q("webservice.submit_ms_p50", "ms", &p.submitMS, 0.5)
	q("webservice.submit_ms_p99", "ms", &p.submitMS, 0.99)
	ratio("webservice.results_per_task", "count", perTask(float64(d.svc.Metrics.Counter("results_processed").Value()), "results_processed"))
	out = append(out, metric{name: "webservice.sheds", value: float64(d.svc.Overload.Counter("shed").Value()), unit: "count", n: -1})
	spill := float64(d.svc.Metrics.Counter("spill_payload_bytes").Value()+d.svc.Metrics.Counter("spill_result_bytes").Value()) / 1024
	ratio("webservice.spill_kib_per_task", "KiB", perTask(spill, "service_spill_kib"))

	// broker
	q("broker.depth_tasks_p95", "count", &s.depthTasks, 0.95)
	q("broker.depth_results_p95", "count", &s.depthResults, 0.95)
	q("broker.depth_group_p95", "count", &s.depthGroup, 0.95)
	q("broker.agent_publish_ms_p50", "ms", &p.agentPubMS, 0.5)
	ratio("broker.requeued_per_ktask", "count", perKTask(counterSum(d.brk.Metrics, "requeued."), "requeued"))

	// protocol
	ratio("protocol.wire_bytes_per_task", "B", perTask(float64(p.wireBytes.Load()), "broker_wire_bytes"))
	ratio("sdk.submit_bytes_per_task", "B", perTask(float64(p.submitBytes.Load()), "submit_http_body_bytes"))

	// endpoint
	var received, intakes, published, flushes float64
	for _, a := range d.agents {
		received += float64(a.agent.Metrics.Counter("tasks_received").Value())
		intakes += float64(a.agent.Metrics.Counter("intake_batches").Value())
		published += float64(a.agent.Metrics.Counter("results_published").Value())
		flushes += float64(a.agent.Metrics.Counter("egress_flushes").Value())
	}
	ratio("endpoint.tasks_per_intake", "count", Ratio{Num: received, Den: intakes, NumLabel: "tasks_received", DenLabel: "intake_batches"})
	ratio("endpoint.results_per_flush", "count", Ratio{Num: published, Den: flushes, NumLabel: "results_published", DenLabel: "egress_flushes"})
	ratio("endpoint.ack_calls_per_ktask", "count", perKTask(float64(p.agentAckCalls.Load()), "agent_ack_calls"))
	q("endpoint.egress_backlog_p95", "count", &s.egress, 0.95)

	// engine
	q("engine.queue_ms_p50", "ms", &queueMS, 0.5)
	q("engine.queue_ms_p99", "ms", &queueMS, 0.99)
	q("engine.exec_ms_p50", "ms", &execMS, 0.5)
	q("engine.exec_ms_p99", "ms", &execMS, 0.99)
	workerSeconds := float64(r.w.endpoints*r.w.workers) * r.win.end.Sub(p.origin).Seconds()
	ratio("engine.busy_share", "ratio", Ratio{Num: float64(p.busyNS.Load()) / 1e9, Den: workerSeconds, NumLabel: "runner_busy_s", DenLabel: "worker_s"})

	// statestore
	q("statestore.inflight_p95", "count", &s.inflight, 0.95)

	// objectstore
	q("objectstore.put_ms_p50", "ms", &p.putMS, 0.5)
	q("objectstore.get_ms_p50", "ms", &p.getMS, 0.5)
	q("objectstore.get_ms_p99", "ms", &p.getMS, 0.99)
	ratio("objectstore.ingress_kib_per_task", "KiB", perTask(float64(d.objects.Metrics.Counter("ingress_bytes").Value())/1024, "store_ingress_kib"))
	ratio("objectstore.egress_kib_per_task", "KiB", perTask(float64(d.objects.Metrics.Counter("egress_bytes").Value())/1024, "store_egress_kib"))
	var hits, misses float64
	for _, a := range d.agents {
		hits += float64(a.agent.Metrics.Counter("dedup_cache_hits").Value())
		misses += float64(a.agent.Metrics.Counter("dedup_cache_misses").Value())
	}
	ratio("objectstore.dedup_hit_ratio", "ratio", Ratio{Num: hits, Den: hits + misses, NumLabel: "hits", DenLabel: "hits+misses"})

	// placement
	var slow, fast []float64
	for i, a := range d.agents {
		n := float64(p.members[a.id])
		if i < r.w.slowMembers {
			slow = append(slow, n)
		} else {
			fast = append(fast, n)
		}
	}
	var slowSum, allSum, fastMax, fastSum float64
	for _, n := range slow {
		slowSum += n
	}
	for _, n := range fast {
		fastSum += n
		fastMax = max(fastMax, n)
	}
	allSum = slowSum + fastSum
	ratio("placement.slow_share", "ratio", Ratio{Num: slowSum, Den: allSum, NumLabel: "runs_on_slow_members", DenLabel: "runs"})
	picks := float64(d.svc.Routing.Counter("route_picks").Value())
	ratio("placement.stale_pick_share", "ratio", Ratio{Num: float64(d.svc.Routing.Counter("route_stale_picks").Value()), Den: picks, NumLabel: "route_stale_picks", DenLabel: "route_picks"})
	ratio("placement.reroutes_per_ktask", "count", perKTask(float64(d.svc.Routing.Counter("route_reroutes").Value()), "route_reroutes"))
	fastMean := 0.0
	if len(fast) > 0 {
		fastMean = fastSum / float64(len(fast))
	}
	ratio("placement.fast_imbalance", "ratio", Ratio{Num: fastMax, Den: fastMean, NumLabel: "busiest_fast_member_runs", DenLabel: "mean_fast_member_runs"})

	// Go runtime, over the measured window
	ratio("runtime.alloc_kib_per_task", "KiB", Ratio{Num: r.rt.allocBytes / 1024, Den: float64(r.t.inWindow), NumLabel: "alloc_kib", DenLabel: "tasks_in_window"})
	ratio("runtime.gc_cpu_share", "ratio", Ratio{Num: r.rt.gcCPU, Den: r.rt.totalCPU, NumLabel: "gc_cpu_s", DenLabel: "total_cpu_s"})

	// harness
	if r.w.outstanding > 0 {
		out = append(out, metric{name: "harness.generator_late_ms_p99", value: 0, unit: "ms", n: -1, base: "closed loop: tasks have no due time"})
	} else {
		q("harness.generator_late_ms_p99", "ms", &r.t.lateness, 0.99)
	}
	ratio("harness.trace_overhead", "ratio", Ratio{Num: r.traceTPS, Den: r.plainTPS, NumLabel: "traced_tasks_per_s", DenLabel: "untraced_tasks_per_s"})
	st := r.spans
	ratio("harness.unattributed_share", "ratio", Ratio{Num: float64(st.unattributed) / 1e6, Den: float64(st.rootTotal) / 1e6, NumLabel: "uncovered_ms", DenLabel: "task_ms"})
	for _, layer := range selfTimeLayers {
		ratio("selftime."+layer+"_ms", "ms", Ratio{Num: float64(st.self[layer]) / 1e6, Den: float64(st.tasks), NumLabel: layer + "_self_ms", DenLabel: "traced_tasks"})
	}
	return out
}

// describe renders a metric line for the human-readable report.
func (m metric) describe() string {
	s := fmt.Sprintf("%-36s %14.4f %-7s", m.name, m.value, m.unit)
	if m.n >= 0 {
		s += fmt.Sprintf(" n=%d", m.n)
	}
	if m.base != "" {
		s += "  [" + m.base + "]"
	}
	return s
}

// spanBreakdown lists the mean self time per task of every span kind, in
// path order, for the human-readable report.
func spanBreakdown(st spanStats) string {
	names := []string{"sdk.enqueue", "sdk.batch_wait", "webservice.submit", "broker.task_transit",
		"engine.queue", "engine.exec", "objectstore.get_input", "endpoint.egress",
		"broker.agent_publish", "result_path", "sdk.resolve", "objectstore.get_result"}
	var b strings.Builder
	b.WriteString("self time per task by span (ms):")
	for _, n := range names {
		v := 0.0
		if st.tasks > 0 {
			v = float64(st.selfBySpan[n]) / 1e6 / float64(st.tasks)
		}
		fmt.Fprintf(&b, " %s=%.3f", n, v)
	}
	return b.String()
}

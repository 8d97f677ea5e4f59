// Saturation: the PR-3 high-throughput task-path benchmark. It drives the
// message broker — the substrate every task and result crosses twice — at
// a paced offered load and at saturation, in-process (with and without
// batched publish/ack calls) and over framed TCP (whose client always
// batches), and reports achieved tasks/s plus p50/p99 publish-to-consume
// latency. gc-bench -exp saturation -json writes the
// structured result (BENCH_pr3.json) so the speedup is recorded alongside
// the code that produced it.
package experiments

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/durable"
)

// SaturationPoint is one (transport, mode, offered-load) measurement.
type SaturationPoint struct {
	Transport    string  `json:"transport"`     // "inproc" | "tcp"
	Mode         string  `json:"mode"`          // "unbatched" | "batched"
	Batch        int     `json:"batch"`         // messages per publish/ack round trip
	OfferedPerS  int     `json:"offered_per_s"` // 0 = saturation (publish as fast as possible)
	Tasks        int     `json:"tasks"`
	AchievedPerS float64 `json:"achieved_tasks_per_s"`
	P50US        float64 `json:"p50_us"`
	P99US        float64 `json:"p99_us"`
}

// SatMeasureVersion identifies the saturation measurement methodology.
// Version 1 added calibrated re-measurement of saturation arms (see
// satMinMeasure); version 0 artifacts recorded short bursts, so their
// saturation tasks/s are not comparable across versions. Version 2 reflects
// the overload-protection work: every publish now crosses an admission
// check and a two-level (interactive/batch) ready queue, and journaled
// publishes carry a priority flag in the WAL record, so absolute saturation
// rates re-baseline while paced arms remain comparable. Version 3
// re-baselines for two reasons: task mutations now maintain per-shard
// state counters (a small per-create/per-transition cost on every
// store-touching arm, bought back many times over by O(1)
// CountTasksByState), and — the deciding one — re-running the *unchanged*
// version-2 binary against its own recorded baseline on this
// infrastructure moved 7 saturated arms by 10-36%, so cross-session
// saturated-arm comparisons at the 10% tolerance are machine drift, not
// signal. Within-run ratios (codec, dedup, route) and paced arms stay
// comparable.
const SatMeasureVersion = 3

// SaturationResult is the JSON artifact gc-bench -json writes.
type SaturationResult struct {
	MeasureVersion int               `json:"measure_version"`
	TasksPerArm    int               `json:"tasks_per_arm"`
	BatchSize      int               `json:"batch_size"`
	Points         []SaturationPoint `json:"points"`
	// InprocSpeedup compares batched vs unbatched achieved tasks/s at
	// saturation on the in-process broker (before/after for batched broker
	// calls).
	InprocSpeedup float64 `json:"inproc_speedup_at_saturation"`
	// TCPEndpointSpeedup and InprocEndpointSpeedup compare the pipelined
	// endpoint agent (batched intake + engine batch submit + group-commit
	// egress) against the per-task agent hot path at saturation.
	TCPEndpointSpeedup    float64 `json:"tcp_endpoint_speedup_at_saturation"`
	InprocEndpointSpeedup float64 `json:"inproc_endpoint_speedup_at_saturation"`
	// WALCost is the durability tax: achieved tasks/s with the broker
	// journaling every publish to a fsync-batched WAL (wal-on) divided by
	// the in-memory broker (wal-off), both at saturation. 1.0 = free.
	WALCost float64 `json:"wal_on_vs_off_at_saturation"`
	// AdmissionCost is the overload-protection tax: achieved tasks/s
	// through the webservice submit front door with per-tenant admission
	// (token bucket + in-flight + fairshare accounting) divided by the
	// same path with admission off, both at saturation. 1.0 = free; the
	// acceptance bar is >= 0.95 (<= 5% overhead).
	AdmissionCost float64 `json:"admission_on_vs_off_at_saturation"`
	// DedupByteReduction is server egress bytes without the endpoint dedup
	// cache divided by bytes with it, for a 16-way fan-out of one large
	// content-addressed payload (PR 8; the acceptance bar is >= 5x).
	DedupByteReduction float64 `json:"dedup_byte_reduction_fanout16"`
	// RouteP2CImprovement is route-random p99 task latency divided by
	// route-p2c p99 at equal offered load over a simulated fleet with 10x
	// skewed per-endpoint service times (PR 9; the acceptance bar is >= 2x,
	// i.e. p2c p99 <= 0.5x random p99).
	RouteP2CImprovement float64 `json:"route_p2c_p99_improvement"`
	// RouteP2CThroughput is route-p2c achieved tasks/s divided by
	// route-random's at equal offered load (bar: >= 1 — routing on load
	// must not cost throughput).
	RouteP2CThroughput float64 `json:"route_p2c_throughput_ratio"`
	// RouteFleetSize records how many simulated endpoints the route arms
	// ran (the full bench runs 10000).
	RouteFleetSize int      `json:"route_fleet_size,omitempty"`
	Notes          []string `json:"notes"`
}

// satBatch is the batch size for the batched arms (the acceptance bar asks
// for >= 32).
const satBatch = 32

// Saturation measures broker throughput and latency across the inproc
// unbatched/batched and tcp batched arms at a paced load and at saturation.
// n is the task count per arm (floored at 500 for stable percentiles);
// routeFleet sizes the simulated fleet behind the route-random/route-p2c
// placement arms (0 = default, see RouteFleetOptions).
func Saturation(n, routeFleet int) (Report, *SaturationResult, error) {
	if n < 500 {
		n = 500
	}
	if routeFleet <= 0 {
		routeFleet = 2000
	}
	res := &SaturationResult{MeasureVersion: SatMeasureVersion, TasksPerArm: n, BatchSize: satBatch, RouteFleetSize: routeFleet}
	// The paced load exercises the latency-under-load story; saturation
	// (offered 0) exercises peak throughput.
	paced := 2000

	// Endpoint arms run through a full agent on real workers, and the
	// durability arms wait on real fsync batches, so both task counts are
	// capped to keep the smoke run quick.
	epN := n
	if epN > 5000 {
		epN = 5000
	}
	walN := epN

	// Assemble every arm first, then run in two passes: all paced (latency)
	// arms on a quiet machine, then all saturation arms. Calibrated
	// saturation runs churn up to maxScaled allocations each — interleaving
	// them with paced arms puts their GC and scheduler debt straight into
	// the latency tails.
	type armSpec struct {
		offered int
		run     func(offered int) (SaturationPoint, error)
	}
	var specs []armSpec
	for _, arm := range []struct {
		transport string
		batch     int
	}{{"inproc", 1}, {"inproc", satBatch}, {"tcp", satBatch}} {
		arm := arm
		for _, offered := range []int{paced, 0} {
			specs = append(specs, armSpec{offered, func(offered int) (SaturationPoint, error) {
				return satArm(arm.transport, arm.batch, offered, n)
			}})
		}
	}
	// Endpoint arms: the same paced/saturation grid through a full agent,
	// per-task ("ep-single") vs pipelined hot path ("ep-pipelined").
	for _, transport := range []string{"inproc", "tcp"} {
		for _, pipelined := range []bool{false, true} {
			transport, pipelined := transport, pipelined
			for _, offered := range []int{paced, 0} {
				specs = append(specs, armSpec{offered, func(offered int) (SaturationPoint, error) {
					return endpointArm(transport, pipelined, offered, epN)
				}})
			}
		}
	}
	// Durability arms: the same batched broker workload with the publish
	// path journaled through internal/durable's group-commit WAL vs the
	// plain in-memory broker.
	for _, journaled := range []bool{false, true} {
		journaled := journaled
		for _, offered := range []int{paced, 0} {
			specs = append(specs, armSpec{offered, func(offered int) (SaturationPoint, error) {
				return walArm(journaled, offered, walN)
			}})
		}
	}
	// Admission arms: the webservice submit front door (validation, broker
	// publish, echo agent, result processing) with per-tenant admission
	// accounting on vs off.
	admN := epN
	for _, admitted := range []bool{false, true} {
		admitted := admitted
		for _, offered := range []int{paced, 0} {
			specs = append(specs, armSpec{offered, func(offered int) (SaturationPoint, error) {
				return admissionArm(admitted, offered, admN)
			}})
		}
	}
	// Route arms: skew-blind vs power-of-two-choices placement over the
	// simulated fleet at equal offered load. Paced by construction (the
	// point is latency under per-endpoint overload, not peak throughput).
	for _, policy := range []string{"random", "p2c"} {
		policy := policy
		specs = append(specs, armSpec{1, func(int) (SaturationPoint, error) {
			return routeArm(policy, routeFleet)
		}})
	}
	points := make([]SaturationPoint, len(specs))
	for pass := 0; pass < 2; pass++ {
		for i, s := range specs {
			if (pass == 0) != (s.offered > 0) {
				continue
			}
			pt, err := s.run(s.offered)
			if err != nil {
				return Report{}, nil, fmt.Errorf("saturation arm %d (offered=%d): %w", i, s.offered, err)
			}
			points[i] = pt
		}
	}
	res.Points = points
	sat := func(transport, mode string, batch int) float64 {
		for _, p := range res.Points {
			if p.Transport == transport && p.Mode == mode && p.Batch == batch && p.OfferedPerS == 0 {
				return p.AchievedPerS
			}
		}
		return 0
	}
	if v := sat("inproc", "unbatched", 1); v > 0 {
		res.InprocSpeedup = sat("inproc", "batched", satBatch) / v
	}
	if v := sat("tcp", "ep-single", 1); v > 0 {
		res.TCPEndpointSpeedup = sat("tcp", "ep-pipelined", satBatch) / v
	}
	if v := sat("inproc", "ep-single", 1); v > 0 {
		res.InprocEndpointSpeedup = sat("inproc", "ep-pipelined", satBatch) / v
	}
	if v := sat("inproc", "wal-off", satBatch); v > 0 {
		res.WALCost = sat("inproc", "wal-on", satBatch) / v
	}
	if v := sat("inproc", "admit-off", satBatch); v > 0 {
		res.AdmissionCost = sat("inproc", "admit-on", satBatch) / v
	}
	// Route arms are paced-only; look them up by mode alone.
	routePt := func(mode string) SaturationPoint {
		for _, p := range res.Points {
			if p.Transport == "fleet" && p.Mode == mode {
				return p
			}
		}
		return SaturationPoint{}
	}
	if rnd, p2c := routePt("route-random"), routePt("route-p2c"); p2c.P99US > 0 && rnd.AchievedPerS > 0 {
		res.RouteP2CImprovement = rnd.P99US / p2c.P99US
		res.RouteP2CThroughput = p2c.AchievedPerS / rnd.AchievedPerS
	}
	// The data-plane arm measures bytes moved, not tasks/s, so it lives in
	// its own field rather than the point grid.
	bytesOff, bytesOn, err := dedupFanout(16, 1<<20)
	if err != nil {
		return Report{}, nil, fmt.Errorf("dedup fan-out arm: %w", err)
	}
	res.DedupByteReduction = float64(bytesOff) / float64(bytesOn)
	res.Notes = append(res.Notes,
		fmt.Sprintf("unbatched = one publish/ack call per task (before); batched = %d tasks per call (after)", satBatch),
		"tcp arms cross the framed-TCP broker protocol (binary batch frames only); inproc arms measure the sharded queue map alone",
		"ep-single = per-task agent hot path (before); ep-pipelined = batched intake + engine batch submit + group-commit egress (after); over tcp both agents ride the one batching client, so tcp ep-single measures the per-task agent on batch frames",
		"wal-on = every publish journaled + fsynced (group commit) before enqueue; wal-off = in-memory broker",
		"admit-on = per-tenant token-bucket admission + in-flight + fairshare accounting on the submit front door; admit-off = same path, no admission",
		fmt.Sprintf("dedup fan-out: 16-way fetch of one 1MiB payload moved %d bytes without the endpoint cache, %d with it", bytesOff, bytesOn),
		fmt.Sprintf("route arms: %d simulated endpoints (2%% run 10x the 1s base service time) behind one routing group at 0.4 tasks/s/endpoint (4x a slow endpoint's capacity); route-random picks blind, route-p2c scores heartbeat load with power-of-two-choices", routeFleet),
	)

	rep := Report{
		ID:     "saturation",
		Title:  "broker saturation: batched vs per-task calls",
		Header: fmt.Sprintf("%-8s %-10s %6s %10s %14s %10s %10s", "transport", "mode", "batch", "offered/s", "achieved/s", "p50(us)", "p99(us)"),
	}
	for _, p := range res.Points {
		offered := "max"
		if p.OfferedPerS > 0 {
			offered = fmt.Sprintf("%d", p.OfferedPerS)
		}
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %-10s %6d %10s %14.0f %10.0f %10.0f",
			p.Transport, p.Mode, p.Batch, offered, p.AchievedPerS, p.P50US, p.P99US))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("inproc speedup at saturation: %.1fx batched(%d) vs unbatched", res.InprocSpeedup, satBatch),
		fmt.Sprintf("tcp endpoint speedup at saturation: %.1fx pipelined vs single", res.TCPEndpointSpeedup),
		fmt.Sprintf("inproc endpoint speedup at saturation: %.1fx", res.InprocEndpointSpeedup),
		fmt.Sprintf("wal durability cost at saturation: wal-on achieves %.0f%% of wal-off throughput", 100*res.WALCost),
		fmt.Sprintf("admission cost at saturation: admit-on achieves %.0f%% of admit-off throughput (bar: >= 95%%)", 100*res.AdmissionCost),
		fmt.Sprintf("dedup byte reduction: %.1fx fewer bytes moved for a 16-way fan-out of identical input (bar: >= 5x)", res.DedupByteReduction),
		fmt.Sprintf("route p99 improvement over %d simulated endpoints: p2c p99 is %.1fx better than random at equal offered load (bar: >= 2x)", routeFleet, res.RouteP2CImprovement),
		fmt.Sprintf("route throughput ratio: p2c achieves %.2fx random's tasks/s (bar: >= 1x)", res.RouteP2CThroughput))
	return rep, res, nil
}

// satArm runs one measurement: n 64-byte messages through a fresh broker,
// acked as they arrive, with publish-to-consume latency sampled from a
// timestamp embedded in each body.
func satArm(transport string, batch, offered, n int) (SaturationPoint, error) {
	b := broker.New()
	const queue = "sat"
	if err := b.Declare(queue); err != nil {
		return SaturationPoint{}, err
	}

	var conn broker.Conn
	switch transport {
	case "inproc":
		conn = broker.LocalConn(b)
	case "tcp":
		srv, err := broker.Serve(b, "127.0.0.1:0")
		if err != nil {
			return SaturationPoint{}, err
		}
		defer srv.Close()
		bc, err := broker.Dial(srv.Addr())
		if err != nil {
			return SaturationPoint{}, err
		}
		defer bc.Close()
		conn = bc.AsConn()
	default:
		return SaturationPoint{}, fmt.Errorf("unknown transport %q", transport)
	}

	mode := "unbatched"
	if batch > 1 {
		mode = "batched"
	}
	return runArm(conn, queue, transport, mode, batch, offered, n)
}

// walArm measures the durability tax: the batched in-process workload with
// the broker journaling every publish through a group-commit WAL (and the
// whole journal thrown away afterwards) vs the plain in-memory broker.
func walArm(journaled bool, offered, n int) (SaturationPoint, error) {
	const queue = "sat"
	mode := "wal-off"
	b := broker.New()
	if journaled {
		mode = "wal-on"
		dir, err := os.MkdirTemp("", "gc-walbench-*")
		if err != nil {
			return SaturationPoint{}, err
		}
		defer os.RemoveAll(dir)
		bl, err := durable.OpenBroker(durable.BrokerOptions{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			return SaturationPoint{}, err
		}
		defer bl.Close()
		b = bl.B
	}
	if err := b.Declare(queue); err != nil {
		return SaturationPoint{}, err
	}
	return runArm(broker.LocalConn(b), queue, "inproc", mode, satBatch, offered, n)
}

// satMinMeasure is the floor on a saturation arm's measurement window. A
// few thousand tasks through the fast arms finish in single-digit
// milliseconds — a burst dominated by channel buffering and scheduler
// noise, ±40% run to run. Saturation arms that finish faster than this are
// re-measured testing.B-style with the task count scaled to the observed
// rate, so the recorded number is sustained throughput.
const satMinMeasure = 400 * time.Millisecond

// runArm drives n 64-byte messages through conn at the given offered load,
// acking as they arrive, with publish-to-consume latency sampled from a
// timestamp embedded in each body. Saturation runs shorter than
// satMinMeasure are calibrated and re-measured.
func runArm(conn broker.Conn, queue, transport, mode string, batch, offered, n int) (SaturationPoint, error) {
	// Arms must be heap-independent: a calibrated saturation arm churns up
	// to maxScaled message allocations, and the garbage would otherwise
	// show up as GC pauses in the next arm's latency tail.
	runtime.GC()
	prefetch := 2 * batch
	if prefetch < 64 {
		prefetch = 64
	}
	sub, err := conn.Subscribe(queue, prefetch)
	if err != nil {
		return SaturationPoint{}, err
	}
	defer sub.Cancel()

	pt, elapsed, err := measureArm(conn, sub, queue, transport, mode, batch, offered, n)
	if err != nil || offered > 0 || elapsed >= satMinMeasure {
		return pt, err
	}
	scaled := int(pt.AchievedPerS * satMinMeasure.Seconds())
	const maxScaled = 1_500_000
	if scaled > maxScaled {
		scaled = maxScaled
	}
	if scaled <= n {
		return pt, nil
	}
	pt, _, err = measureArm(conn, sub, queue, transport, mode, batch, offered, scaled)
	return pt, err
}

func measureArm(conn broker.Conn, sub broker.Subscription, queue, transport, mode string, batch, offered, n int) (SaturationPoint, time.Duration, error) {
	latencies := make([]time.Duration, 0, n)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		tags := make([]uint64, 0, batch)
		for m := range sub.Messages() {
			ts := int64(binary.BigEndian.Uint64(m.Body[:8]))
			latencies = append(latencies, time.Since(time.Unix(0, ts)))
			tags = append(tags, m.Tag)
			if len(tags) >= batch || len(latencies) == n {
				_ = sub.AckBatch(tags)
				tags = tags[:0]
			}
			if len(latencies) == n {
				return
			}
		}
	}()

	stamp := func() []byte {
		body := make([]byte, 64)
		binary.BigEndian.PutUint64(body[:8], uint64(time.Now().UnixNano()))
		return body
	}
	// pace sleeps so message i is offered at start + i/offered.
	start := time.Now()
	pace := func(i int) {
		if offered <= 0 {
			return
		}
		due := start.Add(time.Duration(i) * time.Second / time.Duration(offered))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
	}
	if batch <= 1 {
		for i := 0; i < n; i++ {
			pace(i)
			if err := conn.Publish(queue, stamp()); err != nil {
				return SaturationPoint{}, 0, err
			}
		}
	} else {
		for i := 0; i < n; i += batch {
			pace(i)
			k := batch
			if n-i < k {
				k = n - i
			}
			bodies := make([][]byte, k)
			for j := range bodies {
				bodies[j] = stamp()
			}
			if err := conn.PublishBatch(queue, bodies, nil); err != nil {
				return SaturationPoint{}, 0, err
			}
		}
	}
	select {
	case <-consumed:
	case <-time.After(60 * time.Second):
		return SaturationPoint{}, 0, fmt.Errorf("timed out after %d/%d tasks", len(latencies), n)
	}
	elapsed := time.Since(start)

	return SaturationPoint{
		Transport:    transport,
		Mode:         mode,
		Batch:        batch,
		OfferedPerS:  offered,
		Tasks:        n,
		AchievedPerS: float64(n) / elapsed.Seconds(),
		P50US:        percentileUS(latencies, 0.50),
		P99US:        percentileUS(latencies, 0.99),
	}, elapsed, nil
}

// percentileUS returns the p-th percentile of ds in microseconds.
func percentileUS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds())
}

// Endpoint arms for the saturation experiment: where satArm measures the
// broker substrate alone, endpointArm drives a full endpoint agent — broker
// delivery, agent intake, engine execution, result egress — and compares the
// pre-PR per-task hot path ("ep-single": one delivery, one ack, one result
// publish per task) against the pipelined path ("ep-pipelined": batched
// intake, engine batch submit, group-commit result egress). Over TCP both
// agents ride the one broker client, which batches on the wire, so the tcp
// ep-single arm measures the per-task agent on batch frames rather than the
// per-frame wire it measured before that client became the only one.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/endpoint"
	"globuscompute/internal/engine"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
)

// epWorkers sizes the arm's worker pool. The echo runner is instant, so a
// small pool keeps the measurement on the task path rather than compute.
const epWorkers = 4

// endpointArm runs n tasks end to end through an endpoint agent and reports
// achieved tasks/s plus submit-to-result-consume latency percentiles.
// pipelined toggles the agent's batched intake / group-commit egress; the
// driver and consumer sides are identical in both modes so the agent is the
// only variable.
func endpointArm(transport string, pipelined bool, offered, n int) (SaturationPoint, error) {
	// Shed the previous arm's garbage so its GC debt doesn't pollute this
	// arm's latency tail (the calibrated broker arms churn a lot of heap).
	runtime.GC()
	b := broker.New()
	epID := protocol.NewUUID()
	taskQ := "tasks." + string(epID)
	resultQ := "results." + string(epID)
	for _, q := range []string{taskQ, resultQ} {
		if err := b.Declare(q); err != nil {
			return SaturationPoint{}, err
		}
	}

	// Three conns — agent, driver, consumer — so one side's socket never
	// serializes another's.
	var addr string
	if transport == "tcp" {
		srv, err := broker.Serve(b, "127.0.0.1:0")
		if err != nil {
			return SaturationPoint{}, err
		}
		defer srv.Close()
		addr = srv.Addr()
	}
	newConn := func() (broker.Conn, func(), error) {
		if transport == "inproc" {
			return broker.LocalConn(b), func() {}, nil
		}
		bc, err := broker.Dial(addr)
		if err != nil {
			return nil, nil, err
		}
		return bc.AsConn(), func() { bc.Close() }, nil
	}
	agentConn, closeAgent, err := newConn()
	if err != nil {
		return SaturationPoint{}, err
	}
	defer closeAgent()
	driverConn, closeDriver, err := newConn()
	if err != nil {
		return SaturationPoint{}, err
	}
	defer closeDriver()
	consumerConn, closeConsumer, err := newConn()
	if err != nil {
		return SaturationPoint{}, err
	}
	defer closeConsumer()

	// The runner echoes the payload (a nanosecond timestamp) straight back,
	// so consumed results carry their submit time.
	echo := func(ctx context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
		return protocol.Result{State: protocol.StateSuccess, Output: task.Payload}
	}
	eng, err := engine.New(engine.Config{
		Provider:   provider.NewLocal(epWorkers),
		Run:        echo,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		WorkersPerNode: epWorkers,
	})
	if err != nil {
		return SaturationPoint{}, err
	}
	// Both arms get a deep delivery window so the broker keeps pushing while
	// acks are in flight; only the agent's batching behavior differs.
	cfg := endpoint.Config{EndpointID: epID, Conn: agentConn, Engine: eng, Prefetch: 256}
	if pipelined {
		cfg.IntakeBatch = satBatch
	} else {
		// Pre-pipeline behavior: one delivery decoded, submitted, and acked
		// per wakeup; one publish per result.
		cfg.IntakeBatch = 1
		cfg.EgressMaxBatch = 1
		cfg.DisableAdaptivePrefetch = true
	}
	agent, err := endpoint.New(cfg)
	if err != nil {
		return SaturationPoint{}, err
	}
	if err := agent.Start(); err != nil {
		return SaturationPoint{}, err
	}
	defer agent.Stop()

	sub, err := consumerConn.Subscribe(resultQ, 256)
	if err != nil {
		return SaturationPoint{}, err
	}
	defer sub.Cancel()
	// The consumer acks out of line (bounded overlap) so an ack round trip
	// never stalls result intake — the harness measures the agent, not its
	// own ack latency. Identical in both arms.
	latencies := make([]time.Duration, 0, n)
	consumed := make(chan error, 1)
	var ackWG sync.WaitGroup
	ackSem := make(chan struct{}, 2)
	ack := func(tags []uint64) {
		ackSem <- struct{}{}
		ackWG.Add(1)
		go func() {
			defer ackWG.Done()
			defer func() { <-ackSem }()
			_ = sub.AckBatch(tags)
		}()
	}
	go func() {
		defer ackWG.Wait()
		tags := make([]uint64, 0, satBatch)
		for m := range sub.Messages() {
			var res protocol.Result
			if err := json.Unmarshal(m.Body, &res); err != nil {
				consumed <- err
				return
			}
			ts, err := strconv.ParseInt(string(res.Output), 10, 64)
			if err != nil {
				consumed <- fmt.Errorf("result output %q: %w", res.Output, err)
				return
			}
			latencies = append(latencies, time.Since(time.Unix(0, ts)))
			tags = append(tags, m.Tag)
			if len(tags) >= satBatch || len(latencies) == n {
				ack(tags)
				tags = make([]uint64, 0, satBatch)
			}
			if len(latencies) == n {
				consumed <- nil
				return
			}
		}
		consumed <- fmt.Errorf("result stream closed after %d/%d", len(latencies), n)
	}()

	task := func() []byte {
		t := protocol.Task{
			ID: protocol.NewUUID(), EndpointID: epID, Kind: protocol.KindPython,
			Payload: []byte(strconv.FormatInt(time.Now().UnixNano(), 10)),
		}
		body, _ := json.Marshal(t)
		return body
	}
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
	// The driver always publishes in wire batches with a few round trips in
	// flight: submission cost is held constant (and off the measured path)
	// so the arms differ only in what the agent does.
	pubErr := make(chan error, 1)
	var pubWG sync.WaitGroup
	pubSem := make(chan struct{}, 4)
	for i := 0; i < n; i += satBatch {
		pace(i)
		k := satBatch
		if n-i < k {
			k = n - i
		}
		bodies := make([][]byte, k)
		for j := range bodies {
			bodies[j] = task()
		}
		pubSem <- struct{}{}
		pubWG.Add(1)
		go func(bodies [][]byte) {
			defer pubWG.Done()
			defer func() { <-pubSem }()
			if err := driverConn.PublishBatch(taskQ, bodies, nil); err != nil {
				select {
				case pubErr <- err:
				default:
				}
			}
		}(bodies)
	}
	pubWG.Wait()
	select {
	case err := <-pubErr:
		return SaturationPoint{}, err
	default:
	}
	select {
	case err := <-consumed:
		if err != nil {
			return SaturationPoint{}, err
		}
	case <-time.After(120 * time.Second):
		return SaturationPoint{}, fmt.Errorf("endpoint arm timed out after %d/%d results", len(latencies), n)
	}
	elapsed := time.Since(start)
	if os.Getenv("EP_ARM_DEBUG") != "" {
		fmt.Printf("DEBUG %s pipelined=%v: received=%d intake_batches=%d flushes=%d published=%d\n",
			transport, pipelined,
			agent.Metrics.Counter("tasks_received").Value(),
			agent.Metrics.Counter("intake_batches").Value(),
			agent.Metrics.Counter("egress_flushes").Value(),
			agent.Metrics.Counter("results_published").Value())
	}

	mode, batch := "ep-single", 1
	if pipelined {
		mode, batch = "ep-pipelined", satBatch
	}
	return SaturationPoint{
		Transport:    transport,
		Mode:         mode,
		Batch:        batch,
		OfferedPerS:  offered,
		Tasks:        n,
		AchievedPerS: float64(n) / elapsed.Seconds(),
		P50US:        percentileUS(latencies, 0.50),
		P99US:        percentileUS(latencies, 0.99),
	}, nil
}

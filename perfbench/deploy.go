package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"globuscompute/internal/auth"
	"globuscompute/internal/broker"
	"globuscompute/internal/endpoint"
	"globuscompute/internal/engine"
	"globuscompute/internal/metrics"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/provider"
	"globuscompute/internal/registry"
	"globuscompute/internal/sdk"
	"globuscompute/internal/shellfn"
	"globuscompute/internal/statestore"
	"globuscompute/internal/trace"
	"globuscompute/internal/webservice"
)

// Settings shipped by cmd/gc-endpoint; the benchmark deploys agents with
// the same values.
const (
	agentHeartbeat  = 5 * time.Second
	agentSpillAt    = 64 << 10
	agentDedupCache = 64 << 20
)

// deployOpts shapes one deployment.
type deployOpts struct {
	endpoints int
	workers   int
	// group puts every endpoint in one routing group under the service's
	// default placement policy and targets the group instead of endpoint 0.
	group bool
	// delay, when set, is the extra service time of a member's every task.
	delay func(member int) time.Duration
	// probes, when set, wraps the layers' interfaces and turns on the
	// byte-counting broker relay (the traced run).
	probes *probes
	// scratch is a directory the agents may use as their shell sandbox.
	scratch string
}

// deployment is one whole stack, assembled from public constructors the way
// cmd/gc-webservice and cmd/gc-endpoint wire it, plus one SDK executor.
type deployment struct {
	store      *statestore.Store
	brk        *broker.Broker
	objects    *objectstore.Store
	svc        *webservice.Service
	brokerSrv  *broker.Server
	objectsSrv *objectstore.Server
	httpSrv    *webservice.Server
	relay      *relay
	stops      []func()

	agents []*agentHandle
	target protocol.UUID

	client  *sdk.Client
	sdkBC   *broker.Client
	ex      *sdk.Executor
	fn      *sdk.PythonFunction
	sdkHTTP *http.Transport
}

type agentHandle struct {
	id    protocol.UUID
	agent *endpoint.Agent
	conn  *broker.ReconnectingConn
}

// assemble starts the cloud side, the agents and the executor, and returns
// once every endpoint is online, the function is registered and one
// warm-up task has come back through the whole path.
func assemble(o deployOpts) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()

	// Cloud side, as cmd/gc-webservice wires it without -data-dir.
	authSvc := auth.NewService()
	d.objects = objectstore.New()
	traces := trace.NewCollector(0)
	tracer := trace.NewTracer("webservice", traces)
	d.store, d.brk = statestore.New(), broker.New()
	d.brk.Tracer = trace.NewTracer("broker", traces)
	d.svc, err = webservice.New(webservice.Config{
		Store: d.store, Broker: d.brk, Objects: d.objects, Auth: authSvc,
		Tracer: tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("webservice: %w", err)
	}
	if d.brokerSrv, err = broker.Serve(d.brk, "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	if d.objectsSrv, err = objectstore.ServeHTTP(d.objects, "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("objects: %w", err)
	}
	brokerAddr := d.brokerSrv.Addr()
	if o.probes != nil {
		if d.relay, err = startRelay(brokerAddr, &o.probes.wireBytes); err != nil {
			return nil, fmt.Errorf("relay: %w", err)
		}
		brokerAddr = d.relay.addr()
	}
	if d.httpSrv, err = webservice.ServeHTTP(d.svc, "127.0.0.1:0", brokerAddr, d.objectsSrv.Addr()); err != nil {
		return nil, fmt.Errorf("http: %w", err)
	}
	d.stops = append(d.stops,
		d.svc.StartRetentionSweeper(webservice.ResultRetention, time.Hour),
		d.svc.StartWatchdog(webservice.WatchdogConfig{HeartbeatTimeout: 30 * time.Second, Interval: 10 * time.Second}),
		d.svc.StartSLOEvaluator(15*time.Second))
	tok, err := authSvc.Issue(auth.Identity{Username: "bench@example.edu", Provider: "bootstrap"},
		[]string{auth.ScopeCompute, auth.ScopeManage}, 24*time.Hour, time.Time{})
	if err != nil {
		return nil, fmt.Errorf("token: %w", err)
	}
	serviceAddr := d.httpSrv.Addr()

	reg := registry.Builtins()
	for i := 0; i < o.endpoints; i++ {
		var delay time.Duration
		if o.delay != nil {
			delay = o.delay(i)
		}
		ah, err := startAgent(serviceAddr, tok.Value, i, o, reg, delay)
		if err != nil {
			return nil, fmt.Errorf("endpoint %d: %w", i, err)
		}
		d.agents = append(d.agents, ah)
	}

	// The generator: one SDK client whose HTTP transport holds at most
	// nproc connections, and one broker connection for the result stream.
	d.sdkHTTP = &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		IdleConnTimeout:     30 * time.Second,
	}
	d.client = sdk.NewClient(serviceAddr, tok.Value)
	d.client.HTTP = &http.Client{Timeout: 30 * time.Second, Transport: o.probes.transport(d.sdkHTTP)}

	d.target = d.agents[0].id
	if o.group {
		members := make([]protocol.UUID, len(d.agents))
		for i, a := range d.agents {
			members[i] = a.id
		}
		if d.target, err = createGroup(d.client, members); err != nil {
			return nil, err
		}
	}
	if d.sdkBC, err = broker.Dial(brokerAddr); err != nil {
		return nil, fmt.Errorf("sdk broker: %w", err)
	}
	d.ex, err = sdk.NewExecutor(sdk.ExecutorConfig{
		Client:     d.client,
		EndpointID: d.target,
		Conn:       o.probes.conn(d.sdkBC.AsConn(), roleSDK),
		Objects:    o.probes.sdkFetcher(objectstore.NewClient(d.objectsSrv.Addr())),
	})
	if err != nil {
		return nil, fmt.Errorf("executor: %w", err)
	}
	d.fn = &sdk.PythonFunction{Entrypoint: "identity"}
	fut, err := d.ex.Submit(d.fn, "warm-up")
	if err != nil {
		return nil, fmt.Errorf("warm-up submit: %w", err)
	}
	out, err := fut.ResultWithin(30 * time.Second)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if string(out) != `"warm-up"` {
		return nil, fmt.Errorf("warm-up returned %q", out)
	}
	return d, nil
}

// startAgent registers and starts one endpoint agent the way cmd/gc-endpoint
// does: REST registration, a reconnecting broker connection with batching
// and the binary codec, object fetches over HTTP through a DedupCache,
// result spill above 64 KiB, and load-carrying heartbeats every 5 s.
func startAgent(serviceAddr, token string, i int, o deployOpts, reg *registry.Registry, delay time.Duration) (*agentHandle, error) {
	client := sdk.NewClient(serviceAddr, token)
	resp, err := client.RegisterEndpoint(webservice.RegisterEndpointRequest{Name: fmt.Sprintf("bench-ep-%d", i)})
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	ah := &agentHandle{id: resp.EndpointID}
	ah.conn, err = broker.NewReconnecting(broker.ReconnectConfig{
		Dial: func() (broker.Conn, error) {
			bc, err := broker.Dial(resp.BrokerAddr)
			if err != nil {
				return nil, err
			}
			bc.EnableBatching(broker.BatchConfig{})
			bc.EnableBinary()
			return bc.AsConn(), nil
		},
	})
	if err != nil {
		return nil, err
	}
	objects := objectstore.NewClient(resp.ObjectsAddr)
	dedup := objectstore.NewDedupCache(o.probes.wireFetcher(objects), agentDedupCache)
	shell := shellfn.Options{SandboxRoot: o.scratch}
	run := endpoint.NewRunner(reg, shell, dedup)
	if o.probes != nil {
		run = o.probes.runner(ah.id, delay, func(f endpoint.ObjectFetcher) engine.TaskRunner {
			return endpoint.NewRunner(reg, shell, f)
		}, dedup)
	} else if delay > 0 {
		run = delayed(run, delay)
	}
	eng, err := engine.New(engine.Config{
		Provider: provider.NewLocal(o.workers), Run: run,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
	})
	if err != nil {
		ah.conn.Close()
		return nil, fmt.Errorf("engine: %w", err)
	}
	var agentRef *endpoint.Agent
	ah.agent, err = endpoint.New(endpoint.Config{
		EndpointID: resp.EndpointID,
		Conn:       o.probes.conn(ah.conn, roleAgent),
		Engine:     eng,
		Objects:    dedup,
		Spill:      o.probes.spill(objects), SpillThreshold: agentSpillAt,
		Heartbeat: func(online bool) {
			if agentRef == nil {
				_ = client.Heartbeat(resp.EndpointID, online)
				return
			}
			l := agentRef.SnapshotLoad()
			backlog := l.EgressBacklog
			load := &statestore.EndpointLoad{
				PendingTasks: l.PendingTasks, TotalWorkers: l.TotalWorkers,
				FreeWorkers: l.FreeWorkers, TasksReceived: l.TasksReceived,
				ResultsPublished: l.ResultsPublished, EgressBacklog: &backlog,
			}
			var snap *metrics.Snapshot
			if s, ok := agentRef.SnapshotMetrics(time.Now()); ok {
				snap = &s
			}
			_ = client.HeartbeatReport(resp.EndpointID, online, load, snap)
		},
		HeartbeatInterval: agentHeartbeat,
	})
	if err != nil {
		ah.conn.Close()
		return nil, err
	}
	agentRef = ah.agent
	dedup.Metrics = ah.agent.Metrics
	if err := ah.agent.Start(); err != nil {
		ah.conn.Close()
		return nil, fmt.Errorf("start: %w", err)
	}
	return ah, nil
}

// delayed adds a fixed service time in front of every task.
func delayed(run engine.TaskRunner, d time.Duration) engine.TaskRunner {
	return func(ctx context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
		time.Sleep(d)
		return run(ctx, task, w)
	}
}

// createGroup makes a routing group over REST under the service's default
// placement policy (the SDK has no routing-group call).
func createGroup(c *sdk.Client, members []protocol.UUID) (protocol.UUID, error) {
	body, err := json.Marshal(map[string]any{"name": "bench-group", "members": members})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v2/routing_groups", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Authorization", "Bearer "+c.Token)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", fmt.Errorf("create routing group: %w", err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    protocol.UUID `json:"routing_group_uuid"`
		Error string        `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("create routing group: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("create routing group: %s: %s", resp.Status, out.Error)
	}
	return out.ID, nil
}

// close tears the deployment down in the order cmd/gc-webservice drains:
// clients first, then agents, front door, background loops, service, wire
// servers, broker.
func (d *deployment) close() {
	if d.ex != nil {
		d.ex.Close()
	}
	if d.sdkBC != nil {
		d.sdkBC.Close()
	}
	for _, a := range d.agents {
		a.agent.Stop()
		a.conn.Close()
	}
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	for _, stop := range d.stops {
		stop()
	}
	if d.svc != nil {
		d.svc.Close()
	}
	if d.brokerSrv != nil {
		d.brokerSrv.Close()
	}
	if d.relay != nil {
		d.relay.close()
	}
	if d.objectsSrv != nil {
		d.objectsSrv.Close()
	}
	if d.brk != nil {
		d.brk.Close()
	}
	if d.sdkHTTP != nil {
		d.sdkHTTP.CloseIdleConnections()
	}
	// Agents and object clients use the default transport, as deployed.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// scratchDir makes the agents' shell sandbox inside the build directory.
func scratchDir(buildDir string) (string, error) {
	dir := filepath.Join(buildDir, "sandbox")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

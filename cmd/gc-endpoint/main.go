// Command gc-endpoint runs a single-user endpoint agent against a running
// gc-webservice: it registers the endpoint, connects to the broker, and
// executes python-kind (builtin registry), shell, and optionally MPI tasks
// on a local worker pool or a simulated batch cluster.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/endpoint"
	"globuscompute/internal/engine"
	"globuscompute/internal/metrics"
	"globuscompute/internal/mpiengine"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/provider"
	"globuscompute/internal/registry"
	"globuscompute/internal/scheduler"
	"globuscompute/internal/sdk"
	"globuscompute/internal/shellfn"
	"globuscompute/internal/statestore"
	"globuscompute/internal/webservice"
)

func main() {
	var (
		service   = flag.String("service", "127.0.0.1:8080", "web service address")
		token     = flag.String("token", "", "bearer token (from gc-webservice output)")
		name      = flag.String("name", "go-endpoint", "endpoint display name")
		workers   = flag.Int("workers", 4, "worker pool size")
		withMPI   = flag.Bool("mpi", false, "attach a GlobusMPIEngine over a simulated cluster")
		mpiNodes  = flag.Int("mpi-nodes", 4, "simulated cluster nodes for the MPI engine")
		sandbox   = flag.String("sandbox-root", os.TempDir(), "ShellFunction sandbox root")
		transport   = flag.String("transport", "channel", "engine interchange transport: channel or tcp")
		brokerCA    = flag.String("broker-ca", "", "CA PEM for a TLS broker (from gc-webservice -broker-tls)")
		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics (agent + engine registries, Prometheus text) on this address")
		spillAt     = flag.Int("spill-threshold", 64<<10, "result bytes above which outputs spill to the object store as references (0 = always inline)")
		dedupCache  = flag.Int64("dedup-cache", 64<<20, "bytes of fetched payloads cached for fan-out dedup (0 = no cache)")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -metrics-addr mux (off by default)")
	)
	flag.Parse()
	if *token == "" {
		log.Fatal("gc-endpoint: -token required")
	}
	if *pprofOn && *metricsAddr == "" {
		log.Fatal("gc-endpoint: -pprof requires -metrics-addr (pprof serves on the metrics mux)")
	}

	client := sdk.NewClient(*service, *token)
	reg, err := client.RegisterEndpoint(webservice.RegisterEndpointRequest{Name: *name})
	if err != nil {
		log.Fatalf("gc-endpoint: register: %v", err)
	}
	fmt.Printf("gc-endpoint registered: %s\n", reg.EndpointID)
	fmt.Printf("  task queue:   %s\n", reg.TaskQueue)
	fmt.Printf("  result queue: %s\n", reg.ResultQueue)

	// The broker connection auto-reconnects with backoff so a webservice
	// restart or network blip does not take the endpoint down; consumers
	// resubscribe and unacked deliveries are redelivered (at-least-once).
	conn, err := broker.NewReconnecting(broker.ReconnectConfig{
		Dial: func() (broker.Conn, error) {
			bc, err := dialBroker(reg.BrokerAddr, *brokerCA)
			if err != nil {
				return nil, err
			}
			return bc.AsConn(), nil
		},
	})
	if err != nil {
		log.Fatalf("gc-endpoint: broker: %v", err)
	}
	defer conn.Close()
	objects := objectstore.NewClient(reg.ObjectsAddr)
	// A bounded LRU in front of the store client: a fan-out of tasks sharing
	// one large content-addressed payload fetches it over the wire once.
	fetcher := endpoint.ObjectFetcher(objects)
	var dedup *objectstore.DedupCache
	if *dedupCache > 0 {
		dedup = objectstore.NewDedupCache(objects, *dedupCache)
		fetcher = dedup
	}

	runner := endpoint.NewRunner(registry.Builtins(), shellfn.Options{SandboxRoot: *sandbox}, fetcher)
	eng, err := engine.New(engine.Config{
		Provider: provider.NewLocal(*workers), Run: runner,
		InitBlocks: 1, MinBlocks: 1, MaxBlocks: 1,
		Transport: *transport,
	})
	if err != nil {
		log.Fatalf("gc-endpoint: engine: %v", err)
	}
	var agentRef *endpoint.Agent
	cfg := endpoint.Config{
		EndpointID: reg.EndpointID,
		Conn:       conn,
		Engine:     eng,
		Objects:    fetcher,
		Spill:      objects, SpillThreshold: *spillAt,
		Heartbeat: func(online bool) {
			var err error
			if agentRef != nil {
				l := agentRef.SnapshotLoad()
				backlog := l.EgressBacklog
				load := &statestore.EndpointLoad{
					PendingTasks: l.PendingTasks, TotalWorkers: l.TotalWorkers,
					FreeWorkers: l.FreeWorkers, TasksReceived: l.TasksReceived,
					ResultsPublished: l.ResultsPublished, EgressBacklog: &backlog,
				}
				var snap *metrics.Snapshot
				if d, ok := agentRef.SnapshotMetrics(time.Now()); ok {
					snap = &d
				}
				err = client.HeartbeatReport(reg.EndpointID, online, load, snap)
			} else {
				err = client.Heartbeat(reg.EndpointID, online)
			}
			if err != nil {
				log.Printf("gc-endpoint: heartbeat: %v", err)
			}
		},
		HeartbeatInterval: 5 * time.Second,
	}
	var sched *scheduler.Scheduler
	if *withMPI {
		sched = scheduler.SimpleCluster(*mpiNodes)
		prov, err := provider.NewBatch(provider.BatchConfig{
			Scheduler: sched, Partition: "default", NodesPerBlock: *mpiNodes,
		})
		if err != nil {
			log.Fatalf("gc-endpoint: mpi provider: %v", err)
		}
		mpi, err := mpiengine.New(mpiengine.Config{Provider: prov})
		if err != nil {
			log.Fatalf("gc-endpoint: mpi engine: %v", err)
		}
		cfg.MPI = mpi
		fmt.Printf("  MPI engine:   %d simulated nodes\n", *mpiNodes)
	}

	agent, err := endpoint.New(cfg)
	if err != nil {
		log.Fatalf("gc-endpoint: %v", err)
	}
	agentRef = agent
	if dedup != nil {
		// Report cache hits/misses/evictions through the agent registry so
		// they ride /metrics and the heartbeat federation snapshots.
		dedup.Metrics = agent.Metrics
	}
	if err := agent.Start(); err != nil {
		log.Fatalf("gc-endpoint: start: %v", err)
	}
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = agent.WriteMetrics(w)
		})
		if *pprofOn {
			// Agent-side continuous-profiling hook: the scenario harness (and
			// ad-hoc `go tool pprof`) capture CPU/heap profiles at burst peak.
			mux.HandleFunc("GET /debug/pprof/", pprof.Index)
			mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
			fmt.Printf("  pprof:        http://%s/debug/pprof/\n", *metricsAddr)
		}
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("gc-endpoint: metrics server: %v", err)
			}
		}()
		fmt.Printf("  metrics:      http://%s/metrics\n", *metricsAddr)
	}
	fmt.Println("gc-endpoint online; waiting for tasks")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("gc-endpoint: draining")
	// Agent.Stop is the graceful drain: it cancels the task subscription
	// (stop intake; unacked deliveries redeliver elsewhere), stops the
	// engines after in-flight tasks finish, flushes the egress tail so no
	// computed result is dropped, and sends a final offline heartbeat so the
	// service marks the endpoint stopped instead of waiting for the
	// watchdog. Only then is the broker connection torn down (deferred).
	agent.Stop()
	if sched != nil {
		sched.Close()
	}
	fmt.Println("gc-endpoint: drained cleanly")
}

// dialBroker connects plain or over TLS when a CA file is supplied. Either
// way the client speaks the one broker wire: binary frames, with publishes,
// acks and deliveries in batch frames.
func dialBroker(addr, caPath string) (*broker.Client, error) {
	if caPath == "" {
		return broker.Dial(addr)
	}
	pemData, err := os.ReadFile(caPath)
	if err != nil {
		return nil, err
	}
	pool, err := broker.PoolFromPEM(pemData)
	if err != nil {
		return nil, err
	}
	return broker.DialTLS(addr, pool)
}

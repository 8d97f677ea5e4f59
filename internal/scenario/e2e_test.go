// End-to-end scenario suite: builds the real gc-webservice binary, runs it
// with -pprof, stands up a 16-endpoint simulated fleet (20ms/task => 800
// tasks/s of drain capacity) behind a p2c routing group, then drives the
// built-in steady and burst profiles through scenario.Run. The burst
// profile offers 2x capacity for several seconds; the run passes only when
// the backlog p95 recovers to near steady state within the gate's window
// and the burst-peak pprof captures landed on disk. Gated behind
// GC_SCENARIO=1 (run via `make scenario`); GC_SCENARIO_FULL=1 swaps in the
// multi-minute soak profiles; GC_SCENARIO_OUT names a JSON file recording
// both gated summaries.
package scenario

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/mep"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
	"globuscompute/internal/webservice"
)

const (
	fleetSize       = 16
	simServiceTime  = 20 * time.Millisecond
	heartbeatEvery  = 500 * time.Millisecond
	simPrefetch     = 256
)

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

func buildWebservice(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "gc-scenario-*")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "gc-webservice")
		cmd := exec.Command("go", "build", "-o", buildBin, "globuscompute/cmd/gc-webservice")
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("build gc-webservice: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

func repoRoot() string {
	dir, _ := os.Getwd()
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

var tokenRe = regexp.MustCompile(`bootstrap token \([^)]*\): (\S+)`)

// startWS launches gc-webservice with pprof enabled and waits for the
// bootstrap token (printed once all listeners are up).
func startWS(t *testing.T, bin, httpAddr, brokerAddr, objectsAddr string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin,
		"-http", httpAddr, "-broker", brokerAddr, "-objects", objectsAddr,
		"-pprof")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	tokCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := tokenRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case tokCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case tok := <-tokCh:
		return cmd, tok
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("gc-webservice never printed its bootstrap token")
		return nil, ""
	}
}

// simFleet is the harness-side fleet: sim agents draining task queues plus
// the heartbeat pump that makes their load visible to the service.
type simFleet struct {
	eps    []protocol.UUID
	agents []*mep.SimAgent
	bc     *broker.Client
	stop   chan struct{}
	done   chan struct{}
}

// startFleet registers fleetSize endpoints, attaches a sim agent to each
// over one shared broker connection, pre-warms a load report per endpoint
// (p2c placement scores load reports), and starts the heartbeat pump.
func startFleet(t *testing.T, client *sdk.Client, brokerAddr string) *simFleet {
	t.Helper()
	bc, err := broker.Dial(brokerAddr)
	if err != nil {
		t.Fatalf("dial broker: %v", err)
	}
	conn := bc.AsConn()

	f := &simFleet{bc: bc, stop: make(chan struct{}), done: make(chan struct{})}
	for i := 0; i < fleetSize; i++ {
		reg, err := client.RegisterEndpoint(webservice.RegisterEndpointRequest{
			Name: fmt.Sprintf("sim-%02d", i),
		})
		if err != nil {
			t.Fatalf("register endpoint %d: %v", i, err)
		}
		agent, err := mep.StartSimAgent(mep.SimAgentConfig{
			EndpointID: reg.EndpointID, Conn: conn,
			ServiceTime: simServiceTime, Prefetch: simPrefetch,
		})
		if err != nil {
			t.Fatalf("start sim agent %d: %v", i, err)
		}
		f.eps = append(f.eps, reg.EndpointID)
		f.agents = append(f.agents, agent)
		load := agent.Load()
		if err := client.HeartbeatReport(reg.EndpointID, true, &load, nil); err != nil {
			t.Fatalf("pre-warm heartbeat %d: %v", i, err)
		}
	}
	go func() {
		defer close(f.done)
		tick := time.NewTicker(heartbeatEvery)
		defer tick.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-tick.C:
				for i, agent := range f.agents {
					load := agent.Load()
					_ = client.HeartbeatReport(f.eps[i], true, &load, nil)
				}
			}
		}
	}()
	return f
}

func (f *simFleet) Stop() {
	close(f.stop)
	<-f.done
	for _, a := range f.agents {
		a.Stop()
	}
	f.bc.Close()
}

// createGroup wraps the fleet in a routing group running the p2c policy.
func createGroup(t *testing.T, httpAddr, token string, members []protocol.UUID) protocol.UUID {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"name": "scenario-fleet", "policy": "p2c", "members": members,
	})
	req, err := http.NewRequest("POST", "http://"+httpAddr+"/v2/routing_groups", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("create routing group: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		GroupID protocol.UUID `json:"routing_group_uuid"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create routing group: status %d err %v", resp.StatusCode, err)
	}
	return out.GroupID
}

func TestScenarioHarness(t *testing.T) {
	if os.Getenv("GC_SCENARIO") == "" {
		t.Skip("scenario suite skipped: set GC_SCENARIO=1 (or run `make scenario`)")
	}
	steadyName, burstName := "steady", "burst"
	if os.Getenv("GC_SCENARIO_FULL") != "" {
		steadyName, burstName = "steady-full", "burst-full"
	}

	bin := buildWebservice(t)
	httpAddr, brokerAddr, objectsAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	ws, token := startWS(t, bin, httpAddr, brokerAddr, objectsAddr)
	defer func() {
		ws.Process.Kill()
		ws.Wait()
	}()

	client := sdk.NewClient(httpAddr, token)
	fleet := startFleet(t, client, brokerAddr)
	defer fleet.Stop()
	group := createGroup(t, httpAddr, token, fleet.eps)

	// Run outputs land next to GC_SCENARIO_OUT when set (so `make
	// scenario` leaves samples.csv + pprof captures inspectable), else in
	// the test temp dir.
	outRoot := t.TempDir()
	outPath := os.Getenv("GC_SCENARIO_OUT")
	if outPath != "" {
		outRoot = filepath.Join(filepath.Dir(outPath), "scenario-runs")
	}

	summaries := map[string]Summary{}
	results := map[string]*RunResult{}
	for _, name := range []string{steadyName, burstName} {
		p, ok := Builtin(name)
		if !ok {
			t.Fatalf("missing builtin profile %q", name)
		}
		res, err := Run(context.Background(), RunConfig{
			Service: httpAddr, Token: token, Target: group,
			Profile: p, OutDir: filepath.Join(outRoot, name), Logf: t.Logf,
		})
		if err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		s := res.Summary
		summaries[name] = s
		results[name] = res
		if !s.Valid || !s.Pass {
			t.Errorf("profile %s did not pass: valid=%v pass=%v reasons=%v",
				name, s.Valid, s.Pass, s.FailReasons)
		}
		if s.Samples < p.Gates.MinSamples {
			t.Errorf("profile %s: %d samples < %d", name, s.Samples, p.Gates.MinSamples)
		}
		if _, err := os.Stat(res.SamplesCSV); err != nil {
			t.Errorf("profile %s: samples.csv missing: %v", name, err)
		}
	}

	// The burst run must have exercised the headline gate and captured
	// burst-peak profiles from the live service.
	burst := summaries[burstName]
	foundRecovery := false
	for _, g := range burst.Gates {
		if g.Name == "backlog_recovery" {
			foundRecovery = true
			if !g.Pass {
				t.Errorf("backlog recovery gate failed: %+v", g)
			}
		}
	}
	if !foundRecovery {
		t.Error("burst run evaluated no backlog_recovery gate")
	}
	if burst.PprofError != "" {
		t.Errorf("pprof capture failed: %s", burst.PprofError)
	}
	if len(burst.PprofFiles) < 2 {
		t.Errorf("expected CPU + heap pprof captures, got %v", burst.PprofFiles)
	}
	for _, f := range burst.PprofFiles {
		fi, err := os.Stat(filepath.Join(outRoot, burstName, f))
		if err != nil || fi.Size() == 0 {
			t.Errorf("pprof capture %s empty or missing (err %v)", f, err)
		}
	}

	// The fleet's service-rate EWMA must have flowed end to end: heartbeat
	// load deltas -> obs.FleetStore -> /metrics/fleet federation gauge ->
	// sampler. Under steady 200 tasks/s the fleet-wide sum should be well
	// above zero by the back half of the run.
	sawRate := false
	for _, sm := range results[steadyName].Samples {
		if sm.ServiceRateSum > 10 {
			sawRate = true
			break
		}
	}
	if !sawRate {
		t.Error("no steady sample observed a positive fleet service-rate sum on /metrics/fleet")
	}

	if outPath != "" {
		record := map[string]any{
			"suite":    "scenario",
			"fleet":    map[string]any{"endpoints": fleetSize, "service_time_ms": simServiceTime.Milliseconds(), "policy": "p2c"},
			"profiles": summaries,
		}
		data, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", outPath, err)
		}
		t.Logf("wrote %s", outPath)
	}
}

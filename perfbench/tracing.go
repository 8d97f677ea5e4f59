package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/endpoint"
	"globuscompute/internal/engine"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
	"globuscompute/internal/trace"
)

// probes measures the layers from outside during a traced run. It wraps the
// interfaces the layers already take — the SDK's HTTP transport, broker
// conns and subscriptions, the engine task runner, the object fetchers and
// the spill — and records, per task, when the task crossed each boundary.
// Every method is safe on a nil *probes and then returns the unwrapped
// value, so the untraced run builds exactly the deployed stack.
type probes struct {
	origin time.Time

	mu      sync.Mutex
	tasks   map[string]*taskTrace
	members map[protocol.UUID]int // tasks executed per endpoint

	enqueueUS, submitMS, sdkAckMS, agentPubMS, putMS, getMS Dist

	submitReqs, submitBytes atomic.Int64
	sdkAcks, sdkResults     atomic.Int64
	agentAckCalls           atomic.Int64
	wireBytes               atomic.Int64
	busyNS                  atomic.Int64
	sdkSub                  atomic.Pointer[probeSub]
}

// taskTrace holds the boundary crossings of one task, in nanoseconds since
// probes.origin; zero means not seen.
type taskTrace struct {
	enqStart, enqEnd       int64 // Executor.Submit call
	httpStart, httpEnd     int64 // the /v2/submit round trip carrying it
	agentDeliver           int64 // delivery on the agent's task subscription
	execStart, execEnd     int64 // engine runner (incl. added service time)
	getInStart, getInEnd   int64 // payload fetch inside the runner
	pubStart, pubEnd       int64 // agent's result publish
	sdkDeliver             int64 // delivery on the executor's result stream
	getOutStart, getOutEnd int64 // result-ref fetch by the executor
	resolved               int64 // future observed resolved
}

func newProbes() *probes {
	return &probes{
		origin:  time.Now(),
		tasks:   make(map[string]*taskTrace),
		members: make(map[protocol.UUID]int),
	}
}

func (p *probes) now() int64 { return int64(time.Since(p.origin)) }

func (p *probes) at(t time.Time) int64 { return int64(t.Sub(p.origin)) }

// mark applies f to the task's trace under the lock.
func (p *probes) mark(id string, f func(t *taskTrace)) {
	if id == "" {
		return
	}
	p.mu.Lock()
	t := p.tasks[id]
	if t == nil {
		t = &taskTrace{}
		p.tasks[id] = t
	}
	f(t)
	p.mu.Unlock()
}

// first keeps the earliest sighting: a redelivered task reports its first
// crossing.
func first(dst *int64, v int64) {
	if *dst == 0 {
		*dst = v
	}
}

// markClient records the generator's view of one task: its Submit call and
// when its future was seen resolved.
func (p *probes) markClient(id protocol.UUID, t0, t1, resolved time.Time) {
	if p == nil || id == "" {
		return
	}
	p.mu.Lock()
	p.enqueueUS.Add(float64(t1.Sub(t0)) / float64(time.Microsecond))
	p.mu.Unlock()
	p.mark(string(id), func(t *taskTrace) {
		first(&t.enqStart, p.at(t0))
		first(&t.enqEnd, p.at(t1))
		first(&t.resolved, p.at(resolved))
	})
}

// --- SDK HTTP transport ---

type probeTransport struct {
	inner http.RoundTripper
	p     *probes
}

func (p *probes) transport(inner http.RoundTripper) http.RoundTripper {
	if p == nil {
		return inner
	}
	return probeTransport{inner: inner, p: p}
}

// RoundTrip times /v2/submit until its body is read, counts request and
// body bytes, and stamps the round trip on every task the response names.
func (t probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v2/submit" {
		return t.inner.RoundTrip(req)
	}
	start := t.p.now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	end := t.p.now()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	t.p.submitReqs.Add(1)
	t.p.submitBytes.Add(max(req.ContentLength, 0) + int64(len(body)))
	t.p.mu.Lock()
	t.p.submitMS.Add(float64(end-start) / 1e6)
	t.p.mu.Unlock()
	var ids struct {
		TaskIDs []string `json:"task_uuids"`
	}
	if json.Unmarshal(body, &ids) == nil {
		for _, id := range ids.TaskIDs {
			t.p.mark(id, func(tt *taskTrace) {
				first(&tt.httpStart, start)
				first(&tt.httpEnd, end)
			})
		}
	}
	return resp, nil
}

// --- broker conns and subscriptions ---

type role int

const (
	roleAgent role = iota
	roleSDK
)

// probeConn wraps a broker.Conn, keeping its batch-publish fast path.
type probeConn struct {
	broker.Conn
	p    *probes
	role role
}

func (p *probes) conn(c broker.Conn, r role) broker.Conn {
	if p == nil {
		return c
	}
	return &probeConn{Conn: c, p: p, role: r}
}

func (c *probeConn) Publish(q string, body []byte) error { return c.PublishTraced(q, body, nil) }

func (c *probeConn) PublishTraced(q string, body []byte, tc *trace.Context) error {
	start := c.p.now()
	err := c.Conn.PublishTraced(q, body, tc)
	c.published([][]byte{body}, start, c.p.now())
	return err
}

func (c *probeConn) PublishBatch(q string, bodies [][]byte, traces []*trace.Context) error {
	start := c.p.now()
	err := broker.PublishBatchOn(c.Conn, q, bodies, traces)
	c.published(bodies, start, c.p.now())
	return err
}

func (c *probeConn) published(bodies [][]byte, start, end int64) {
	if c.role != roleAgent {
		return
	}
	c.p.mu.Lock()
	c.p.agentPubMS.Add(float64(end-start) / 1e6)
	c.p.mu.Unlock()
	for _, b := range bodies {
		c.p.mark(taskIDOf(b), func(t *taskTrace) {
			first(&t.pubStart, start)
			first(&t.pubEnd, end)
		})
	}
}

func (c *probeConn) Subscribe(q string, prefetch int) (broker.Subscription, error) {
	s, err := c.Conn.Subscribe(q, prefetch)
	if err != nil {
		return nil, err
	}
	ps := &probeSub{inner: s, p: c.p, role: c.role, out: make(chan broker.Message, prefetch)}
	if c.role == roleSDK {
		c.p.sdkSub.Store(ps)
	}
	go ps.forward()
	return ps, nil
}

// probeSub stamps each delivery and counts acks. The out buffer matches
// the prefetch window so the consumer's drain loop still sees whole
// batches.
type probeSub struct {
	inner broker.Subscription
	p     *probes
	role  role
	out   chan broker.Message

	mu sync.Mutex
	// unacked lists delivered messages in order until acked. The executor
	// handles one result at a time and acks it last, so the head is the
	// task whose result-ref fetch is in progress.
	unacked []delivered
}

type delivered struct {
	tag uint64
	id  string
}

func (s *probeSub) forward() {
	defer close(s.out)
	for m := range s.inner.Messages() {
		now := s.p.now()
		id := taskIDOf(m.Body)
		switch s.role {
		case roleAgent:
			s.p.mark(id, func(t *taskTrace) { first(&t.agentDeliver, now) })
		case roleSDK:
			s.p.sdkResults.Add(1)
			s.p.mark(id, func(t *taskTrace) { first(&t.sdkDeliver, now) })
			s.mu.Lock()
			s.unacked = append(s.unacked, delivered{m.Tag, id})
			s.mu.Unlock()
		}
		s.out <- m
	}
}

// current is the task the executor is resolving.
func (s *probeSub) current() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.unacked) == 0 {
		return ""
	}
	return s.unacked[0].id
}

func (s *probeSub) Messages() <-chan broker.Message { return s.out }

func (s *probeSub) Ack(tag uint64) error {
	if s.role == roleAgent {
		s.p.agentAckCalls.Add(1)
		return s.inner.Ack(tag)
	}
	start := s.p.now()
	err := s.inner.Ack(tag)
	end := s.p.now()
	s.p.sdkAcks.Add(1)
	s.p.mu.Lock()
	s.p.sdkAckMS.Add(float64(end-start) / 1e6)
	s.p.mu.Unlock()
	s.mu.Lock()
	for i, d := range s.unacked {
		if d.tag == tag {
			s.unacked = append(s.unacked[:i], s.unacked[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	return err
}

func (s *probeSub) AckBatch(tags []uint64) error {
	s.p.agentAckCalls.Add(1)
	return broker.AckBatchOn(s.inner, tags)
}

func (s *probeSub) Nack(tag uint64) error   { return s.inner.Nack(tag) }
func (s *probeSub) Reject(tag uint64) error { return s.inner.Reject(tag) }
func (s *probeSub) Cancel() error           { return s.inner.Cancel() }

// --- engine runner ---

// runner wraps the agent's task runner: it adds the member's service time,
// stamps execution on the task and routes the runner's payload fetches
// through a fetcher that knows which task is asking.
func (p *probes) runner(member protocol.UUID, delay time.Duration, mk func(endpoint.ObjectFetcher) engine.TaskRunner, fetch endpoint.ObjectFetcher) engine.TaskRunner {
	return func(ctx context.Context, task protocol.Task, w engine.WorkerInfo) protocol.Result {
		id := string(task.ID)
		start := p.now()
		if delay > 0 {
			time.Sleep(delay)
		}
		res := mk(taskFetcher{p: p, id: id, inner: fetch})(ctx, task, w)
		end := p.now()
		p.busyNS.Add(end - start)
		p.mu.Lock()
		p.members[member]++
		p.mu.Unlock()
		p.mark(id, func(t *taskTrace) {
			first(&t.execStart, start)
			first(&t.execEnd, end)
		})
		return res
	}
}

type taskFetcher struct {
	p     *probes
	id    string
	inner endpoint.ObjectFetcher
}

func (f taskFetcher) Get(key string) ([]byte, error) {
	start := f.p.now()
	data, err := f.inner.Get(key)
	end := f.p.now()
	f.p.mark(f.id, func(t *taskTrace) {
		first(&t.getInStart, start)
		first(&t.getInEnd, end)
	})
	return data, err
}

// --- object store ---

// timedFetcher times wire fetches; with sdk set it also stamps the fetch
// on the result the executor is resolving.
type timedFetcher struct {
	p     *probes
	inner objectstore.Fetcher
	sdk   bool
}

func (p *probes) wireFetcher(f objectstore.Fetcher) objectstore.Fetcher {
	if p == nil {
		return f
	}
	return timedFetcher{p: p, inner: f}
}

func (p *probes) sdkFetcher(f sdk.ObjectFetcher) sdk.ObjectFetcher {
	if p == nil {
		return f
	}
	return timedFetcher{p: p, inner: f, sdk: true}
}

func (f timedFetcher) Get(key string) ([]byte, error) {
	start := f.p.now()
	data, err := f.inner.Get(key)
	end := f.p.now()
	f.p.mu.Lock()
	f.p.getMS.Add(float64(end-start) / 1e6)
	f.p.mu.Unlock()
	if f.sdk {
		if s := f.p.sdkSub.Load(); s != nil {
			f.p.mark(s.current(), func(t *taskTrace) {
				first(&t.getOutStart, start)
				first(&t.getOutEnd, end)
			})
		}
	}
	return data, err
}

type timedSpill struct {
	p     *probes
	inner endpoint.ObjectStorer
}

func (p *probes) spill(s endpoint.ObjectStorer) endpoint.ObjectStorer {
	if p == nil {
		return s
	}
	return timedSpill{p: p, inner: s}
}

func (s timedSpill) PutContent(data []byte) (string, error) {
	start := s.p.now()
	key, err := s.inner.PutContent(data)
	end := s.p.now()
	s.p.mu.Lock()
	s.p.putMS.Add(float64(end-start) / 1e6)
	s.p.mu.Unlock()
	return key, err
}

// --- broker wire relay ---

// relay is a byte-counting TCP proxy in front of the broker. In the traced
// run the service advertises its address, so every agent and the executor
// reach the broker through it.
type relay struct {
	ln     net.Listener
	target string
	count  *atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func startRelay(target string, count *atomic.Int64) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, count: count, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		r.mu.Lock()
		r.conns[down], r.conns[up] = struct{}{}, struct{}{}
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(up, down)
		go r.pipe(down, up)
	}
}

// pipe copies src to dst counting bytes; either side ending closes both.
func (r *relay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	_, _ = io.Copy(countingWriter{dst, r.count}, src)
	dst.Close()
	src.Close()
	r.mu.Lock()
	delete(r.conns, dst)
	delete(r.conns, src)
	r.mu.Unlock()
}

type countingWriter struct {
	w     io.Writer
	count *atomic.Int64
}

func (c countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.count.Add(int64(n))
	return n, err
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

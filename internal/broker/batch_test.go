package broker

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"globuscompute/internal/protocol"
)

// --- batched publish/consume over TCP ---

func TestBatchPublishConsumeTCP(t *testing.T) {
	s, _ := newTestServer(t)
	pub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if err := pub.Declare("q"); err != nil {
		t.Fatal(err)
	}
	const n = 100
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("task-%d", i))
	}
	if err := pub.PublishBatch("q", bodies, nil); err != nil {
		t.Fatal(err)
	}

	rc, err := sub.Consume("q", 64)
	if err != nil {
		t.Fatal(err)
	}
	var tags []uint64
	for i := 0; i < n; i++ {
		select {
		case m := <-rc.Messages():
			if string(m.Body) != fmt.Sprintf("task-%d", i) {
				t.Fatalf("message %d = %q (batched delivery must preserve FIFO order)", i, m.Body)
			}
			tags = append(tags, m.Tag)
			if len(tags) == 32 || i == n-1 {
				if err := rc.AckBatch(tags); err != nil {
					t.Fatal(err)
				}
				tags = tags[:0]
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for message %d", i)
		}
	}
}

// --- wire shape: what the client puts on the socket ---

// recordingServer is a minimal frame-level broker stand-in that records
// every envelope type it receives and replies OK, optionally after a delay
// (to keep a reply in flight while more messages queue client-side).
type recordingServer struct {
	ln    net.Listener
	delay time.Duration

	mu    sync.Mutex
	types []string
}

func startRecordingServer(t *testing.T, delay time.Duration) *recordingServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &recordingServer{ln: ln, delay: delay}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go rs.handle(conn)
		}
	}()
	return rs
}

func (rs *recordingServer) handle(conn net.Conn) {
	defer conn.Close()
	r := protocol.NewFrameReader(conn)
	w := protocol.NewFrameWriter(conn)
	for {
		env, err := r.Read()
		if err != nil {
			return
		}
		rs.mu.Lock()
		rs.types = append(rs.types, env.Type)
		rs.mu.Unlock()
		if rs.delay > 0 {
			time.Sleep(rs.delay)
		}
		_ = w.Write(protocol.MustEnvelope(protocol.EnvOK, env.ID, nil))
	}
}

func (rs *recordingServer) recorded() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]string(nil), rs.types...)
}

// TestIdleClientSendsBatchOfOne verifies a publish on an idle client goes
// out at once, as a publish_batch frame holding the one message: there is
// no single-message publish on the wire any more.
func TestIdleClientSendsBatchOfOne(t *testing.T) {
	rs := startRecordingServer(t, 0)
	c, err := Dial(rs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Publish("q", []byte("solo")); err != nil {
		t.Fatal(err)
	}
	got := rs.recorded()
	if len(got) != 1 || got[0] != protocol.EnvPublishBatch {
		t.Fatalf("recorded frames = %v, want exactly one %s", got, protocol.EnvPublishBatch)
	}
}

// TestBatchedClientCoalescesConcurrentPublishes verifies group commit: while
// one flush's reply is in flight, concurrent publishes accumulate and go
// out as publish_batch frames, so N messages cost far fewer than N round
// trips.
func TestBatchedClientCoalescesConcurrentPublishes(t *testing.T) {
	rs := startRecordingServer(t, 5*time.Millisecond)
	c, err := Dial(rs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.Publish("q", []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Errorf("publish %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	frames := rs.recorded()
	if len(frames) >= n {
		t.Fatalf("%d publishes used %d frames; group commit should coalesce", n, len(frames))
	}
	sawBatch := false
	for _, typ := range frames {
		if typ == protocol.EnvPublishBatch {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Fatalf("no %s frame among %v", protocol.EnvPublishBatch, frames)
	}
}

// --- chaos: partially-acked batch redelivery ---

// TestChaosBatchedWirePartialAck delivers a batch over the wire, acks only
// half of it, then drops the connection: the broker must redeliver exactly
// the unacked half (flagged Redelivered) to the next consumer — the
// at-least-once contract with batching enabled.
func TestChaosBatchedWirePartialAck(t *testing.T) {
	s, _ := newTestServer(t)
	pub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Declare("q"); err != nil {
		t.Fatal(err)
	}
	const n = 8
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("m%d", i))
	}
	if err := pub.PublishBatch("q", bodies, nil); err != nil {
		t.Fatal(err)
	}

	first, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := first.Consume("q", n)
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		select {
		case m := <-rc.Messages():
			if m.Redelivered {
				t.Fatalf("message %d already redelivered on first delivery", i)
			}
			tags = append(tags, m.Tag)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for message %d", i)
		}
	}
	// Ack the first half of the batch only, then drop the connection.
	if err := rc.AckBatch(tags[:n/2]); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	rc2, err := second.Consume("q", n)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < n/2; i++ {
		select {
		case m := <-rc2.Messages():
			if !m.Redelivered {
				t.Fatalf("redelivery %d (%q) not flagged Redelivered", i, m.Body)
			}
			got[string(m.Body)] = true
			_ = rc2.Ack(m.Tag)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for redelivery %d (got %v)", i, got)
		}
	}
	for i := n / 2; i < n; i++ {
		if !got[fmt.Sprintf("m%d", i)] {
			t.Fatalf("unacked message m%d not redelivered (got %v)", i, got)
		}
	}
	select {
	case m := <-rc2.Messages():
		t.Fatalf("acked message %q redelivered", m.Body)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestReconnectingBatchedConnSurvivesRestart runs the server-restart chaos
// drill with wire batching enabled end to end: a ReconnectingConn dialing
// batched clients keeps publishing (via PublishBatch) and consuming across
// a broker front-end restart.
func TestReconnectingBatchedConnSurvivesRestart(t *testing.T) {
	b := New()
	defer b.Close()
	s, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()

	rc, err := NewReconnecting(ReconnectConfig{Dial: func() (Conn, error) {
		c, err := Dial(addr)
		if err != nil {
			return nil, err
		}
		return c.AsConn(), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.Declare("q"); err != nil {
		t.Fatal(err)
	}
	sub, err := rc.Subscribe("q", 16)
	if err != nil {
		t.Fatal(err)
	}

	recv := func(want string, timeout time.Duration) {
		t.Helper()
		deadline := time.After(timeout)
		for {
			select {
			case m, ok := <-sub.Messages():
				if !ok {
					t.Fatal("subscription closed")
				}
				_ = sub.Ack(m.Tag)
				if string(m.Body) == want {
					return
				}
				// Redeliveries of earlier messages may interleave; skip them.
			case <-deadline:
				t.Fatalf("no delivery of %q", want)
			}
		}
	}

	if err := rc.PublishBatch("q", [][]byte{[]byte("b0"), []byte("b1")}, nil); err != nil {
		t.Fatal(err)
	}
	recv("b0", 2*time.Second)
	recv("b1", 2*time.Second)

	s.Close()
	var s2 *Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		s2, err = Serve(b, addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart listener: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer s2.Close()

	if err := rc.PublishBatch("q", [][]byte{[]byte("after0"), []byte("after1")}, nil); err != nil {
		t.Fatalf("batch publish after restart: %v", err)
	}
	recv("after0", 5*time.Second)
	recv("after1", 5*time.Second)
}

package broker

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/trace"
)

// roundTrip publishes n messages and consumes+acks them, failing on any
// mismatch. It exercises publish, delivery, ack, and trace propagation over
// the binary batched wire.
func roundTrip(t *testing.T, pub, sub *Client, queue string, n int) {
	t.Helper()
	if err := pub.Declare(queue); err != nil {
		t.Fatal(err)
	}
	rc, err := sub.Consume(queue, 8)
	if err != nil {
		t.Fatal(err)
	}
	tc := &trace.Context{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	for i := 0; i < n; i++ {
		if err := pub.PublishTraced(queue, []byte(fmt.Sprintf("msg-%d", i)), tc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case m := <-rc.Messages():
			if string(m.Body) != fmt.Sprintf("msg-%d", i) {
				t.Fatalf("message %d = %q", i, m.Body)
			}
			if m.Trace == nil || m.Trace.TraceID != tc.TraceID {
				t.Fatalf("message %d trace = %+v, want trace id %s", i, m.Trace, tc.TraceID)
			}
			if err := rc.Ack(m.Tag); err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for message %d", i)
		}
	}
}

// TestClientWritesBinaryFromFirstFrame pins the single wire: nothing is
// negotiated, so the very first frame a fresh client sends is a binary
// envelope of the current version, and a full publish/deliver/ack round
// trip with trace propagation works against the server.
func TestClientWritesBinaryFromFirstFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	head := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		b := make([]byte, 6)
		if _, err := io.ReadFull(conn, b); err == nil {
			head <- b
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	go c.Ping() // never answered; only its first bytes matter
	select {
	case b := <-head:
		if b[4] != 0xBF || b[5] != protocol.BinVersion {
			t.Fatalf("first frame starts % x, want binary magic 0xbf version %d", b, protocol.BinVersion)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no frame from a fresh client")
	}
	c.Close()

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
	roundTrip(t, pub, sub, "tasks.ep-bin", 10)
}

func TestBinaryCodecWithBatching(t *testing.T) {
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

	queue := "tasks.ep-binbatch"
	if err := pub.Declare(queue); err != nil {
		t.Fatal(err)
	}
	rc, err := sub.Consume(queue, 32)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("batch-%d", i))
	}
	if err := pub.PublishBatch(queue, bodies, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case m := <-rc.Messages():
			if !bytes.Equal(m.Body, bodies[i]) {
				t.Fatalf("message %d = %q, want %q", i, m.Body, bodies[i])
			}
			if err := rc.Ack(m.Tag); err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for message %d", i)
		}
	}
}

// TestJSONClientBinaryServer pins what a peer that predates the binary
// wire gets now: its length-prefixed JSON frame is a decode error, and the
// server drops the connection without replying.
func TestJSONClientBinaryServer(t *testing.T) {
	s, _ := newTestServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	payload := []byte(`{"type":"declare","id":"1","body":{"queue":"q"}}`)
	frame := append([]byte{0, 0, 0, byte(len(payload))}, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.NewFrameReader(conn).Read(); err != io.EOF {
		t.Fatalf("reply to a JSON frame: err = %v, want the connection closed (io.EOF)", err)
	}
}

// TestServerRejectsSingleMessageFrames speaks the batch-only wire by hand:
// the retired single-message publish and ack requests are unknown to the
// server, and a lone delivery arrives as a delivery_batch of one.
func TestServerRejectsSingleMessageFrames(t *testing.T) {
	s, _ := newTestServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := protocol.NewFrameReader(conn)
	w := protocol.NewFrameWriter(conn)
	call := func(id, typ string, body any) protocol.Envelope {
		t.Helper()
		if err := w.Write(protocol.MustEnvelope(typ, id, body)); err != nil {
			t.Fatal(err)
		}
		env, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if env.ID != id {
			t.Fatalf("reply to %s has id %q, want %q", typ, env.ID, id)
		}
		return env
	}
	if env := call("1", protocol.EnvDeclare, declareBody{Queue: "q"}); env.Type != protocol.EnvOK {
		t.Fatalf("declare reply = %s", env.Type)
	}
	for _, typ := range []string{"publish", "ack"} {
		if env := call(typ, typ, map[string]any{"queue": "q", "tag": 1, "body": "eA=="}); env.Type != protocol.EnvError {
			t.Fatalf("%s reply = %s, want %s", typ, env.Type, protocol.EnvError)
		}
	}
	if env := call("p", protocol.EnvPublishBatch, publishBatchBody{Queue: "q", Bodies: [][]byte{[]byte("solo")}}); env.Type != protocol.EnvOK {
		t.Fatalf("publish_batch reply = %s", env.Type)
	}
	if env := call("c", protocol.EnvConsume, consumeBody{Queue: "q", Prefetch: 4}); env.Type != protocol.EnvOK {
		t.Fatalf("consume reply = %s", env.Type)
	}
	env, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	var d deliveryBatchBody
	if env.Type != protocol.EnvDeliveryBatch {
		t.Fatalf("delivery frame type = %q, want %q", env.Type, protocol.EnvDeliveryBatch)
	}
	if err := env.Decode(&d); err != nil {
		t.Fatal(err)
	}
	if len(d.Items) != 1 || string(d.Items[0].Body) != "solo" {
		t.Fatalf("delivery_batch items = %+v, want one \"solo\"", d.Items)
	}
	if env := call("a", protocol.EnvAckBatch, ackBatchBody{Queue: "q", Tags: []uint64{d.Items[0].Tag}}); env.Type != protocol.EnvOK {
		t.Fatalf("ack_batch reply = %s", env.Type)
	}
}

// TestReconnectKeepsBinaryBatchedWire drops the connection under a
// ReconnectingConn and verifies the replacement client, which speaks the
// same binary batched wire from its first frame, gets the unacked message
// redelivered and carries on.
func TestReconnectKeepsBinaryBatchedWire(t *testing.T) {
	s, _ := newTestServer(t)
	var lastClient *Client
	rc, err := NewReconnecting(ReconnectConfig{
		Dial: func() (Conn, error) {
			c, err := Dial(s.Addr())
			if err != nil {
				return nil, err
			}
			lastClient = c
			return c.AsConn(), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	queue := "tasks.ep-reconn"
	if err := rc.Declare(queue); err != nil {
		t.Fatal(err)
	}
	sub, err := rc.Subscribe(queue, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Publish(queue, []byte("before-drop")); err != nil {
		t.Fatal(err)
	}
	var m Message
	select {
	case m = <-sub.Messages():
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery before drop")
	}
	if string(m.Body) != "before-drop" {
		t.Fatalf("body = %q", m.Body)
	}

	// Kill the connection without acking: the broker requeues, the
	// subscription resubscribes on a fresh connection, and
	// the message arrives again flagged Redelivered.
	first := lastClient
	first.Close()
	select {
	case m = <-sub.Messages():
	case <-time.After(5 * time.Second):
		t.Fatal("no redelivery after reconnect")
	}
	if string(m.Body) != "before-drop" || !m.Redelivered {
		t.Fatalf("redelivery = %q (redelivered=%v)", m.Body, m.Redelivered)
	}
	if err := sub.Ack(m.Tag); err != nil {
		t.Fatal(err)
	}
	if lastClient == first {
		t.Error("subscription did not move to a new client")
	}
	if err := rc.Publish(queue, []byte("after-drop")); err != nil {
		t.Fatal(err)
	}
	select {
	case m = <-sub.Messages():
		if string(m.Body) != "after-drop" {
			t.Fatalf("post-reconnect body = %q", m.Body)
		}
		_ = sub.Ack(m.Tag)
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery after reconnect")
	}
}

package broker

import (
	"fmt"

	"globuscompute/internal/trace"
)

// Conn abstracts a broker connection so components (endpoint agents, the
// MEP, the SDK result stream) work identically against an in-process Broker
// or a TCP Client.
type Conn interface {
	Declare(queue string) error
	Publish(queue string, body []byte) error
	// PublishTraced is Publish carrying a trace context with the message
	// (on the envelope for TCP connections), so consumers can continue the
	// publisher's trace. A nil context is equivalent to Publish.
	PublishTraced(queue string, body []byte, tc *trace.Context) error
	// PublishBatch publishes N messages to one queue with one confirmation
	// (one wire frame over TCP, one lock round trip in process). traces may
	// be nil or parallel to bodies.
	PublishBatch(queue string, bodies [][]byte, traces []*trace.Context) error
	Subscribe(queue string, prefetch int) (Subscription, error)
	// Delete removes a queue, dropping pending messages (used to clean up
	// per-executor group queues and deregistered endpoints).
	Delete(queue string) error
}

// Subscription is a cancellable consumer.
type Subscription interface {
	Messages() <-chan Message
	Ack(tag uint64) error
	// AckBatch acknowledges N tags at once.
	AckBatch(tags []uint64) error
	Nack(tag uint64) error
	// Reject dead-letters a poison message to "<queue>.dlq".
	Reject(tag uint64) error
	// Cancel detaches the consumer; unacknowledged messages requeue.
	Cancel() error
}

// PublishBatchOn publishes a batch on c.
//
// Deprecated: PublishBatch is part of Conn; call c.PublishBatch.
func PublishBatchOn(c Conn, queue string, bodies [][]byte, traces []*trace.Context) error {
	return c.PublishBatch(queue, bodies, traces)
}

// AckBatchOn acknowledges tags on s.
//
// Deprecated: AckBatch is part of Subscription; call s.AckBatch.
func AckBatchOn(s Subscription, tags []uint64) error { return s.AckBatch(tags) }

// localConn adapts *Broker to Conn.
type localConn struct{ b *Broker }

// LocalConn wraps an in-process broker as a Conn.
func LocalConn(b *Broker) Conn { return localConn{b} }

func (l localConn) Declare(queue string) error              { return l.b.Declare(queue) }
func (l localConn) Publish(queue string, body []byte) error { return l.b.Publish(queue, body) }
func (l localConn) Delete(queue string) error               { return l.b.Delete(queue) }

func (l localConn) PublishTraced(queue string, body []byte, tc *trace.Context) error {
	return l.b.PublishTraced(queue, body, tc)
}

func (l localConn) PublishBatch(queue string, bodies [][]byte, traces []*trace.Context) error {
	return l.b.PublishBatch(queue, bodies, traces)
}

func (l localConn) Subscribe(queue string, prefetch int) (Subscription, error) {
	c, err := l.b.Consume(queue, prefetch)
	if err != nil {
		return nil, err
	}
	return localSub{c}, nil
}

type localSub struct{ c *Consumer }

func (s localSub) Messages() <-chan Message     { return s.c.Messages() }
func (s localSub) Ack(tag uint64) error         { return s.c.Ack(tag) }
func (s localSub) AckBatch(tags []uint64) error { return s.c.AckBatch(tags) }
func (s localSub) Nack(tag uint64) error        { return s.c.Nack(tag) }
func (s localSub) Reject(tag uint64) error      { return s.c.Reject(tag) }
func (s localSub) Cancel() error                { s.c.Close(); return nil }

// remoteSub adapts *RemoteConsumer to Subscription.
type remoteSub struct{ rc *RemoteConsumer }

func (s remoteSub) Messages() <-chan Message     { return s.rc.Messages() }
func (s remoteSub) Ack(tag uint64) error         { return s.rc.Ack(tag) }
func (s remoteSub) AckBatch(tags []uint64) error { return s.rc.AckBatch(tags) }
func (s remoteSub) Nack(tag uint64) error        { return s.rc.Nack(tag) }
func (s remoteSub) Reject(tag uint64) error      { return s.rc.Reject(tag) }
func (s remoteSub) Cancel() error                { return s.rc.Cancel() }

// clientConn adapts *Client to Conn.
type clientConn struct{ c *Client }

// AsConn wraps a TCP client as a Conn.
func (c *Client) AsConn() Conn { return clientConn{c} }

func (cc clientConn) Declare(queue string) error              { return cc.c.Declare(queue) }
func (cc clientConn) Publish(queue string, body []byte) error { return cc.c.Publish(queue, body) }
func (cc clientConn) Delete(queue string) error               { return cc.c.DeleteQueue(queue) }

// Close tears down the underlying TCP client (ReconnectingConn discards
// stale connections through this).
func (cc clientConn) Close() error { return cc.c.Close() }

func (cc clientConn) PublishTraced(queue string, body []byte, tc *trace.Context) error {
	return cc.c.PublishTraced(queue, body, tc)
}

func (cc clientConn) PublishBatch(queue string, bodies [][]byte, traces []*trace.Context) error {
	return cc.c.PublishBatch(queue, bodies, traces)
}

func (cc clientConn) Subscribe(queue string, prefetch int) (Subscription, error) {
	rc, err := cc.c.Consume(queue, prefetch)
	if err != nil {
		return nil, fmt.Errorf("broker: subscribe %q: %w", queue, err)
	}
	return remoteSub{rc}, nil
}

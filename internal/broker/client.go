package broker

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/trace"
)

// BatchConfig has no settings: every Client batches, with frames capped at
// maxBatch.
//
// Deprecated: batching is not configurable; the type exists only so
// callers of EnableBatching compile.
type BatchConfig struct{}

// maxBatch bounds messages per publish_batch, ack_batch and delivery_batch
// frame.
const maxBatch = 64

// requestTimeout bounds how long a caller waits for the broker to confirm a
// request.
const requestTimeout = 30 * time.Second

// pendingPub is one Publish waiting inside the flusher queue.
type pendingPub struct {
	queue string
	body  []byte
	tc    *trace.Context
	done  chan error
}

// pendingAck is one Ack waiting inside the flusher queue.
type pendingAck struct {
	queue string
	tag   uint64
	done  chan error
}

// Client is a TCP connection to a broker Server. It multiplexes
// request/reply exchanges and consumer delivery streams over one socket,
// the way the Globus Compute agent holds a single AMQPS connection. Every
// frame is binary, and publishes, acks and deliveries travel in batch
// frames: concurrent Publish/Ack calls are coalesced by a group-commit
// flusher, and the server batches whatever deliveries are ready.
type Client struct {
	conn net.Conn
	w    *protocol.FrameWriter
	ids  requestID

	mu       sync.Mutex
	pending  map[string]chan error
	streams  map[string]*RemoteConsumer
	closed   bool
	closeErr error

	// Group commit: pubQ/ackQ are guarded by mu; flushCh wakes the flusher;
	// done stops it.
	pubQ    []pendingPub
	ackQ    []pendingAck
	flushCh chan struct{}
	done    chan struct{}
}

// newClient wraps an established connection (plain or TLS) and starts its
// reader and flusher.
func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		w:       protocol.NewFrameWriter(conn),
		pending: make(map[string]chan error),
		streams: make(map[string]*RemoteConsumer),
		flushCh: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	go c.flusher(c.done)
	return c
}

// Dial connects to a broker server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("broker: dial %s: %w", addr, err)
	}
	return newClient(conn), nil
}

// EnableBatching is a no-op: every Client batches publishes, acks and
// deliveries.
//
// Deprecated: batching is no longer optional; callers can drop the call.
func (c *Client) EnableBatching(BatchConfig) {}

// EnableBinary is a no-op: every Client speaks the binary frame codec from
// its first frame.
//
// Deprecated: the binary codec is no longer negotiated; callers can drop
// the call.
func (c *Client) EnableBinary() {}

// Close disconnects. Server-side, unacked deliveries are requeued.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.stopFlusher()
	return c.conn.Close()
}

// stopFlusher shuts the flusher down exactly once.
func (c *Client) stopFlusher() {
	c.mu.Lock()
	done := c.done
	c.done = nil
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
}

func (c *Client) readLoop() {
	r := protocol.NewFrameReader(c.conn)
	var err error
	for {
		var env protocol.Envelope
		env, err = r.Read()
		if err != nil {
			break
		}
		switch env.Type {
		case protocol.EnvOK:
			c.complete(env.ID, nil)
		case protocol.EnvError:
			var body errorBody
			msg := "unknown broker error"
			if derr := env.Decode(&body); derr == nil {
				msg = body.Message
			}
			c.complete(env.ID, errors.New(msg))
		case protocol.EnvDeliveryBatch:
			var body deliveryBatchBody
			if derr := env.Decode(&body); derr != nil {
				continue
			}
			// The send happens under the lock so Cancel's close of the
			// channel cannot race it; the buffer (prefetch+1) exceeds the
			// server's delivery window, so the send never blocks.
			c.mu.Lock()
			if rc := c.streams[body.Queue]; rc != nil {
				for _, it := range body.Items {
					rc.ch <- Message{Tag: it.Tag, Body: it.Body, Redelivered: it.Redelivered, Trace: it.Trace}
				}
			}
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	c.closed = true
	c.closeErr = err
	for id, ch := range c.pending {
		ch <- fmt.Errorf("broker: connection lost: %w", err)
		delete(c.pending, id)
	}
	for q, rc := range c.streams {
		close(rc.ch)
		delete(c.streams, q)
	}
	c.mu.Unlock()
	c.stopFlusher()
}

func (c *Client) complete(id string, err error) {
	c.mu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if ok {
		ch <- err
	}
}

// call sends a request and waits for its ok/error reply.
func (c *Client) call(typ string, body any) error {
	return c.callTraced(typ, body, nil)
}

// callTraced is call with a trace context attached to the request envelope.
func (c *Client) callTraced(typ string, body any, tc *trace.Context) error {
	id := c.ids.next()
	ch := make(chan error, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.pending[id] = ch
	c.mu.Unlock()

	env := protocol.Envelope{Type: typ, ID: id, Trace: tc, Bin: body}
	if err := c.w.Write(env); err != nil {
		c.complete(id, nil)
		return fmt.Errorf("broker: send %s: %w", typ, err)
	}
	return await(ch, typ)
}

// await waits for done to complete or requestTimeout to pass. The timer is
// stopped as soon as the reply arrives: an unstopped timer would stay on
// the heap for the whole timeout after every request.
func await(done <-chan error, what string) error {
	t := time.NewTimer(requestTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return fmt.Errorf("broker: %s timed out", what)
	}
}

// Declare creates a queue on the remote broker.
func (c *Client) Declare(queue string) error {
	return c.call(protocol.EnvDeclare, &declareBody{Queue: queue})
}

// Publish appends body to the remote queue.
func (c *Client) Publish(queue string, body []byte) error {
	return c.PublishTraced(queue, body, nil)
}

// PublishTraced appends body to the remote queue with a trace context that
// the server propagates to the delivery. The publish is coalesced with
// concurrent ones into a publish_batch frame; the call blocks until the
// broker confirms.
func (c *Client) PublishTraced(queue string, body []byte, tc *trace.Context) error {
	p := pendingPub{queue: queue, body: body, tc: tc, done: make(chan error, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.pubQ = append(c.pubQ, p)
	c.mu.Unlock()
	signalFlush(c.flushCh)
	return await(p.done, "batched publish")
}

// PublishBatch sends every body to one queue in a single publish_batch
// frame and waits for the broker's single confirmation. traces may be nil
// or parallel to bodies.
func (c *Client) PublishBatch(queue string, bodies [][]byte, traces []*trace.Context) error {
	if len(bodies) == 0 {
		return nil
	}
	return c.call(protocol.EnvPublishBatch, &publishBatchBody{Queue: queue, Bodies: bodies, Traces: traces})
}

// enqueueAck hands an ack to the flusher and waits for its completion.
func (c *Client) enqueueAck(queue string, tag uint64) error {
	a := pendingAck{queue: queue, tag: tag, done: make(chan error, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.ackQ = append(c.ackQ, a)
	c.mu.Unlock()
	signalFlush(c.flushCh)
	return await(a.done, "batched ack")
}

func signalFlush(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default: // a flush is already pending
	}
}

// flusher is the group-commit loop: each wakeup drains everything queued,
// groups it by queue, and sends publish_batch / ack_batch frames (a lone
// message is a batch of one). The first message flushes immediately; while
// a batch's reply is in flight new calls accumulate, so batch size adapts
// to offered load without adding latency at low load.
func (c *Client) flusher(done chan struct{}) {
	for {
		select {
		case <-done:
			c.failQueued(ErrClosed)
			return
		case <-c.flushCh:
		}
		for {
			c.mu.Lock()
			pubs, acks := c.pubQ, c.ackQ
			c.pubQ, c.ackQ = nil, nil
			c.mu.Unlock()
			if len(pubs) == 0 && len(acks) == 0 {
				break
			}
			c.flushPubs(pubs)
			c.flushAcks(acks)
		}
	}
}

// failQueued completes every queued-but-unsent operation with err.
func (c *Client) failQueued(err error) {
	c.mu.Lock()
	pubs, acks := c.pubQ, c.ackQ
	c.pubQ, c.ackQ = nil, nil
	c.mu.Unlock()
	for _, p := range pubs {
		p.done <- err
	}
	for _, a := range acks {
		a.done <- err
	}
}

// flushPubs sends queued publishes as publish_batch frames.
func (c *Client) flushPubs(pubs []pendingPub) {
	inQueueChunks(pubs, func(p pendingPub) string { return p.queue }, func(q string, chunk []pendingPub) {
		bodies := make([][]byte, len(chunk))
		var traces []*trace.Context
		for i, p := range chunk {
			bodies[i] = p.body
			if p.tc != nil {
				if traces == nil {
					traces = make([]*trace.Context, len(chunk))
				}
				traces[i] = p.tc
			}
		}
		err := c.call(protocol.EnvPublishBatch, &publishBatchBody{Queue: q, Bodies: bodies, Traces: traces})
		for _, p := range chunk {
			p.done <- err
		}
	})
}

// flushAcks sends queued acks as ack_batch frames.
func (c *Client) flushAcks(acks []pendingAck) {
	inQueueChunks(acks, func(a pendingAck) string { return a.queue }, func(q string, chunk []pendingAck) {
		tags := make([]uint64, len(chunk))
		for i, a := range chunk {
			tags[i] = a.tag
		}
		err := c.call(protocol.EnvAckBatch, &ackBatchBody{Queue: q, Tags: tags})
		for _, a := range chunk {
			a.done <- err
		}
	})
}

// inQueueChunks groups items by queue and calls send with chunks of at
// most maxBatch, queues in first-seen order and items in FIFO order within
// a queue.
func inQueueChunks[T any](items []T, queueOf func(T) string, send func(queue string, chunk []T)) {
	byQueue := make(map[string][]T)
	var order []string
	for _, it := range items {
		q := queueOf(it)
		if _, ok := byQueue[q]; !ok {
			order = append(order, q)
		}
		byQueue[q] = append(byQueue[q], it)
	}
	for _, q := range order {
		for group := byQueue[q]; len(group) > 0; {
			n := min(len(group), maxBatch)
			send(q, group[:n])
			group = group[n:]
		}
	}
}

// Ping round-trips a heartbeat.
func (c *Client) Ping() error {
	return c.call(protocol.EnvHeartbeat, nil)
}

// DeleteQueue removes a queue on the remote broker, dropping its messages
// and closing its consumers.
func (c *Client) DeleteQueue(queue string) error {
	return c.call(protocol.EnvShutdown, &declareBody{Queue: queue})
}

// RemoteConsumer mirrors Consumer for a TCP client: a delivery channel plus
// Ack/Nack that round-trip to the server.
type RemoteConsumer struct {
	c     *Client
	queue string
	ch    chan Message
}

// Consume begins consuming the remote queue. Only one consumer per queue per
// client connection is permitted (the server enforces this).
func (c *Client) Consume(queue string, prefetch int) (*RemoteConsumer, error) {
	if prefetch <= 0 {
		prefetch = 1
	}
	rc := &RemoteConsumer{c: c, queue: queue, ch: make(chan Message, prefetch+1)}
	c.mu.Lock()
	if _, dup := c.streams[queue]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("broker: already consuming %q", queue)
	}
	c.streams[queue] = rc
	c.mu.Unlock()
	if err := c.call(protocol.EnvConsume, &consumeBody{Queue: queue, Prefetch: prefetch}); err != nil {
		c.mu.Lock()
		delete(c.streams, queue)
		c.mu.Unlock()
		return nil, err
	}
	return rc, nil
}

// Messages returns the delivery channel; it closes when the connection
// drops.
func (rc *RemoteConsumer) Messages() <-chan Message { return rc.ch }

// Ack acknowledges a delivery by tag. Concurrent acks coalesce into
// ack_batch frames.
func (rc *RemoteConsumer) Ack(tag uint64) error {
	return rc.c.enqueueAck(rc.queue, tag)
}

// AckBatch acknowledges many tags in one ack_batch frame and one broker
// lock round trip.
func (rc *RemoteConsumer) AckBatch(tags []uint64) error {
	if len(tags) == 0 {
		return nil
	}
	return rc.c.call(protocol.EnvAckBatch, &ackBatchBody{Queue: rc.queue, Tags: tags})
}

// Nack rejects a delivery; the server requeues it.
func (rc *RemoteConsumer) Nack(tag uint64) error {
	return rc.c.call(protocol.EnvNack, &nackBody{Queue: rc.queue, Tag: tag})
}

// Reject dead-letters a delivery to "<queue>.dlq" on the server.
func (rc *RemoteConsumer) Reject(tag uint64) error {
	return rc.c.call(protocol.EnvNack, &nackBody{Queue: rc.queue, Tag: tag, DeadLetter: true})
}

// Cancel stops consuming: the server detaches the consumer (requeueing
// anything unacknowledged) and the local delivery channel closes.
func (rc *RemoteConsumer) Cancel() error {
	err := rc.c.call(protocol.EnvDrain, &declareBody{Queue: rc.queue})
	rc.c.mu.Lock()
	if _, ok := rc.c.streams[rc.queue]; ok {
		delete(rc.c.streams, rc.queue)
		close(rc.ch)
	}
	rc.c.mu.Unlock()
	return err
}

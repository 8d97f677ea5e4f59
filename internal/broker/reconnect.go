package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/metrics"
	"globuscompute/internal/trace"
)

// ReconnectConfig assembles a ReconnectingConn.
type ReconnectConfig struct {
	// Dial establishes a fresh broker connection (required). It is invoked
	// for the initial connection and again after every detected loss.
	Dial func() (Conn, error)
	// BaseDelay seeds the exponential backoff between reconnect attempts
	// (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// PublishAttempts bounds attempts per publish/declare/delete operation,
	// counting the first try (default 6). Subscription re-establishment is
	// not bounded: a consumer stream retries until Close.
	PublishAttempts int
	// Seed seeds the backoff jitter so fault-injection runs reproduce
	// (default 1).
	Seed int64
	// Metrics receives the reconnects / resubscribes / publish_retries
	// counters (default: a private registry).
	Metrics *metrics.Registry
}

// ReconnectingConn is a broker Conn that survives connection loss: failed
// operations redial with jittered exponential backoff, and subscriptions
// transparently resubscribe when their delivery stream drops. Unacked
// deliveries at the moment of loss are requeued by the broker and arrive
// again flagged Redelivered — the at-least-once contract the hosted service
// offers over AMQPS.
//
// After a reconnect, Ack/Nack tags from deliveries of the previous
// connection are stale; acknowledging them returns ErrUnknownTag and the
// message is simply redelivered. Consumers must therefore tolerate
// duplicate deliveries (all consumers in this codebase do).
type ReconnectingConn struct {
	cfg ReconnectConfig

	// dialMu serializes redials so concurrent failing operations trigger
	// one reconnect, not a thundering herd.
	dialMu sync.Mutex

	mu     sync.Mutex
	cur    Conn
	gen    int // bumped on every successful (re)dial
	rng    *rand.Rand
	subs   []*resilientSub
	closed bool
	done   chan struct{}

	Metrics *metrics.Registry
}

// NewReconnecting validates cfg and returns a connection that dials lazily
// on first use.
func NewReconnecting(cfg ReconnectConfig) (*ReconnectingConn, error) {
	if cfg.Dial == nil {
		return nil, errors.New("broker: reconnect dial function required")
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 25 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Second
	}
	if cfg.PublishAttempts <= 0 {
		cfg.PublishAttempts = 6
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &ReconnectingConn{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		done:    make(chan struct{}),
		Metrics: cfg.Metrics,
	}, nil
}

// Close stops reconnecting and cancels every subscription. The underlying
// connection, if it exposes Close, is closed too.
func (r *ReconnectingConn) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.done)
	subs := append([]*resilientSub(nil), r.subs...)
	cur := r.cur
	r.mu.Unlock()
	for _, s := range subs {
		_ = s.Cancel()
	}
	if c, ok := cur.(interface{ Close() error }); ok {
		_ = c.Close()
	}
}

// backoff returns the jittered delay before retry attempt n (full jitter:
// uniform in [delay/2, delay]).
func (r *ReconnectingConn) backoff(attempt int) time.Duration {
	d := r.cfg.BaseDelay << uint(attempt)
	if d <= 0 || d > r.cfg.MaxDelay {
		d = r.cfg.MaxDelay
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.mu.Unlock()
	return d/2 + j
}

// conn returns a live connection, redialing when the caller's generation is
// the one that failed. attempts bounds dial tries (<=0 means retry until
// Close). It returns the connection and its generation.
func (r *ReconnectingConn) conn(staleGen, attempts int) (Conn, int, error) {
	r.dialMu.Lock()
	defer r.dialMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if r.cur != nil && r.gen > staleGen {
		c, g := r.cur, r.gen
		r.mu.Unlock()
		return c, g, nil
	}
	stale := r.cur
	r.cur = nil
	redial := r.gen > 0
	r.mu.Unlock()
	if c, ok := stale.(interface{ Close() error }); ok {
		_ = c.Close() // release the dead connection's resources
	}

	var lastErr error
	for attempt := 0; attempts <= 0 || attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-r.done:
				return nil, 0, ErrClosed
			case <-time.After(r.backoff(attempt - 1)):
			}
		}
		c, err := r.cfg.Dial()
		if err != nil {
			lastErr = err
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			if cc, ok := c.(interface{ Close() error }); ok {
				_ = cc.Close()
			}
			return nil, 0, ErrClosed
		}
		r.cur = c
		r.gen++
		g := r.gen
		r.mu.Unlock()
		if redial {
			r.Metrics.Counter("reconnects").Inc()
		}
		return c, g, nil
	}
	return nil, 0, fmt.Errorf("broker: reconnect gave up after %d attempts: %w", attempts, lastErr)
}

// transientBrokerErr reports whether err looks like a lost or unusable
// connection (worth a reconnect) rather than a broker-level rejection such
// as an unknown queue.
func transientBrokerErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrConsumerClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	s := err.Error()
	for _, marker := range []string{
		"connection lost", "connection refused", "connection reset",
		"broken pipe", "timed out", "use of closed network connection",
		"EOF", "send ",
	} {
		if strings.Contains(s, marker) {
			return true
		}
	}
	return false
}

// op runs one idempotent broker operation with reconnect-and-retry.
func (r *ReconnectingConn) op(name string, f func(Conn) error) error {
	stale := -1
	var lastErr error
	for attempt := 0; attempt < r.cfg.PublishAttempts; attempt++ {
		if attempt > 0 {
			r.Metrics.Counter("publish_retries").Inc()
			select {
			case <-r.done:
				return ErrClosed
			case <-time.After(r.backoff(attempt - 1)):
			}
		}
		c, gen, err := r.conn(stale, 1)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return err
			}
			lastErr = err
			continue
		}
		if err := f(c); err != nil {
			if !transientBrokerErr(err) {
				return err
			}
			lastErr = err
			stale = gen
			continue
		}
		return nil
	}
	return fmt.Errorf("broker: %s gave up after %d attempts: %w", name, r.cfg.PublishAttempts, lastErr)
}

func (r *ReconnectingConn) Declare(queue string) error {
	return r.op("declare", func(c Conn) error { return c.Declare(queue) })
}

func (r *ReconnectingConn) Publish(queue string, body []byte) error {
	return r.op("publish", func(c Conn) error { return c.Publish(queue, body) })
}

func (r *ReconnectingConn) PublishTraced(queue string, body []byte, tc *trace.Context) error {
	return r.op("publish", func(c Conn) error { return c.PublishTraced(queue, body, tc) })
}

// PublishBatch publishes a batch with reconnect-and-retry. Like Publish it
// is at-least-once: a retry after a mid-batch connection loss may duplicate
// messages that already landed, which consumers must tolerate anyway.
func (r *ReconnectingConn) PublishBatch(queue string, bodies [][]byte, traces []*trace.Context) error {
	return r.op("publish_batch", func(c Conn) error { return c.PublishBatch(queue, bodies, traces) })
}

func (r *ReconnectingConn) Delete(queue string) error {
	return r.op("delete", func(c Conn) error { return c.Delete(queue) })
}

// Subscribe attaches a resilient consumer: when the delivery stream drops
// (connection loss, injected fault), the subscription reconnects and
// resubscribes with backoff until Cancel or Close, and deliveries continue
// on the same Messages channel.
func (r *ReconnectingConn) Subscribe(queue string, prefetch int) (Subscription, error) {
	if prefetch <= 0 {
		prefetch = 1
	}
	s := &resilientSub{
		r:        r,
		queue:    queue,
		prefetch: prefetch,
		out:      make(chan Message, prefetch+1),
		done:     make(chan struct{}),
	}
	if err := s.attach(-1, r.cfg.PublishAttempts); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.subs = append(r.subs, s)
	r.mu.Unlock()
	go s.pump()
	return s, nil
}

// resilientSub forwards deliveries from the current underlying subscription
// onto a stable channel, resubscribing across connection loss.
type resilientSub struct {
	r        *ReconnectingConn
	queue    string
	prefetch int
	out      chan Message

	mu        sync.Mutex
	inner     Subscription
	gen       int
	cancelled bool
	done      chan struct{}
}

// attach (re)subscribes on a live connection. attempts <= 0 retries until
// the conn closes.
func (s *resilientSub) attach(staleGen, attempts int) error {
	for tries := 0; ; tries++ {
		c, gen, err := s.r.conn(staleGen, attempts)
		if err != nil {
			return err
		}
		sub, err := c.Subscribe(s.queue, s.prefetch)
		if err != nil {
			if !transientBrokerErr(err) {
				return err
			}
			staleGen = gen
			if attempts > 0 && tries+1 >= attempts {
				return err
			}
			select {
			case <-s.done:
				return ErrConsumerClosed
			case <-time.After(s.r.backoff(tries)):
			}
			continue
		}
		s.mu.Lock()
		s.inner, s.gen = sub, gen
		s.mu.Unlock()
		return nil
	}
}

// pump forwards deliveries until the subscription is cancelled or the conn
// closes; on stream loss it resubscribes and keeps going.
func (s *resilientSub) pump() {
	for {
		s.mu.Lock()
		inner := s.inner
		gen := s.gen
		s.mu.Unlock()
		for m := range inner.Messages() {
			select {
			case s.out <- m:
			case <-s.done:
				close(s.out)
				return
			}
		}
		// Stream closed: deliberate cancel ends the subscription; anything
		// else is a lost connection worth resubscribing after.
		s.mu.Lock()
		cancelled := s.cancelled
		s.mu.Unlock()
		if cancelled {
			close(s.out)
			return
		}
		if err := s.attach(gen, 0); err != nil {
			close(s.out)
			return
		}
		s.r.Metrics.Counter("resubscribes").Inc()
	}
}

func (s *resilientSub) Messages() <-chan Message { return s.out }

func (s *resilientSub) current() Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}

// Ack acknowledges a delivery. After a reconnect, tags from the previous
// stream are stale: the ack fails and the broker redelivers the message.
func (s *resilientSub) Ack(tag uint64) error    { return s.current().Ack(tag) }
func (s *resilientSub) Nack(tag uint64) error   { return s.current().Nack(tag) }
func (s *resilientSub) Reject(tag uint64) error { return s.current().Reject(tag) }

// AckBatch acknowledges a batch of tags on the current stream. Stale tags
// (from before a reconnect) fail and their messages simply redeliver.
func (s *resilientSub) AckBatch(tags []uint64) error { return s.current().AckBatch(tags) }

// Cancel permanently detaches the consumer; unacked deliveries requeue on
// the broker.
func (s *resilientSub) Cancel() error {
	s.mu.Lock()
	if s.cancelled {
		s.mu.Unlock()
		return nil
	}
	s.cancelled = true
	inner := s.inner
	close(s.done)
	s.mu.Unlock()
	if inner != nil {
		return inner.Cancel()
	}
	return nil
}

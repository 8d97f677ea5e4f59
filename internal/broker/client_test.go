package broker

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"
)

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestClientRoundTripsDoNotPinTimers runs 50k publish and ack round trips
// over a TCP client and checks the live heap afterwards. Every waiting
// caller arms a 30 s timeout; under the go 1.22 timer rules this module
// builds with, a timer that is not stopped stays on the heap until it
// fires, so a client that leaves them running pins hundreds of bytes per
// request (~14 MB here) long after the requests finished.
func TestClientRoundTripsDoNotPinTimers(t *testing.T) {
	s, _ := newTestServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Declare("q"); err != nil {
		t.Fatal(err)
	}
	rc, err := c.Consume("q", 256)
	if err != nil {
		t.Fatal(err)
	}

	const publishers, perPublisher = 8, 6250 // 50k publishes, 50k acks
	before := liveHeap()
	acked := make(chan error, 1)
	go func() {
		deadline := time.NewTimer(60 * time.Second)
		defer deadline.Stop()
		for i := 0; i < publishers*perPublisher; i++ {
			select {
			case m := <-rc.Messages():
				if err := rc.Ack(m.Tag); err != nil {
					acked <- err
					return
				}
			case <-deadline.C:
				acked <- fmt.Errorf("timed out after %d deliveries", i)
				return
			}
		}
		acked <- nil
	}()
	var wg sync.WaitGroup
	errs := make(chan error, publishers)
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := make([]byte, 16)
			for i := 0; i < perPublisher; i++ {
				if err := c.Publish("q", body); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	after := liveHeap()

	const bound = 4 << 20
	if after > before && after-before > bound {
		t.Fatalf("live heap grew %.1f MiB over 100k finished requests, bound %.0f MiB: request timers are not being stopped",
			float64(after-before)/(1<<20), float64(bound)/(1<<20))
	}
}

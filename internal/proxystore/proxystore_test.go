package proxystore

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"globuscompute/internal/objectstore"
)

// backends returns every object-store flavour a Store runs over: in
// memory, on disk, and a remote store over HTTP.
func backends(t *testing.T) map[string]Backend {
	t.Helper()
	disk, err := objectstore.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := objectstore.ServeHTTP(objectstore.New(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return map[string]Backend{
		"memory":      objectstore.New(),
		"file":        disk,
		"objectstore": objectstore.NewClient(srv.Addr()),
	}
}

func TestBackendRoundTrip(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s, err := NewStore("main", b, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ResolveReference(Reference{Store: "main", Key: objectstore.ContentKey([]byte("v"))}); !errors.Is(err, objectstore.ErrNotFound) {
				t.Errorf("resolve before put = %v, want ErrNotFound", err)
			}
			p, err := s.PutBytes([]byte("v"))
			if err != nil {
				t.Fatal(err)
			}
			if p.Reference().Key != objectstore.ContentKey([]byte("v")) {
				t.Errorf("key = %q, want the content key", p.Reference().Key)
			}
			got, err := s.ResolveReference(p.Reference())
			if err != nil || string(got) != "v" {
				t.Errorf("resolve = %q, %v", got, err)
			}
		})
	}
}

func TestProxyKeyIsSpillKey(t *testing.T) {
	backend := objectstore.New()
	s, _ := NewStore("main", backend, 0)
	data := []byte(strings.Repeat("shared input ", 100))
	p, err := s.PutBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	spillKey, err := backend.PutContent(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reference().Key != spillKey {
		t.Errorf("proxy key %q != spill key %q", p.Reference().Key, spillKey)
	}
	if backend.Len() != 1 {
		t.Errorf("backend holds %d objects, want 1", backend.Len())
	}
}

func TestProxyResolve(t *testing.T) {
	s, err := NewStore("main", objectstore.New(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	type model struct {
		Weights []float64
		Name    string
	}
	in := model{Weights: []float64{0.1, 0.2}, Name: "net"}
	p, err := s.Put(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reference().Store != "main" || p.Reference().Size == 0 {
		t.Errorf("ref = %+v", p.Reference())
	}
	var out model
	if err := p.ResolveInto(&out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "net" || len(out.Weights) != 2 {
		t.Errorf("out = %+v", out)
	}
}

func TestProxyResolveOnce(t *testing.T) {
	backend := objectstore.New()
	s, _ := NewStore("main", backend, 0) // no cache: only the proxy memoizes
	p, _ := s.PutBytes([]byte("payload"))
	if _, err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if err := backend.Delete(p.Reference().Key); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Resolve(); err != nil {
		t.Errorf("memoized resolve failed: %v", err)
	}
}

func TestProxyContentAddressing(t *testing.T) {
	backend := objectstore.New()
	s, _ := NewStore("main", backend, 0)
	p1, _ := s.PutBytes([]byte("same"))
	p2, _ := s.PutBytes([]byte("same"))
	if p1.Reference().Key != p2.Reference().Key {
		t.Error("identical content produced different keys")
	}
	if got := backend.Metrics.Counter("puts").Value(); got != 1 {
		t.Errorf("backend writes = %d, want 1 (re-put skipped)", got)
	}
}

func TestResolveKeepsSharedContent(t *testing.T) {
	// Content-addressed bytes may back several references (and spilled
	// task payloads); resolving one must never delete them.
	backend := objectstore.New()
	s, _ := NewStore("main", backend, 0)
	p1, _ := s.PutBytes([]byte("shared"))
	p2, _ := s.PutBytes([]byte("shared"))
	if _, err := p1.Resolve(); err != nil {
		t.Fatal(err)
	}
	if !backend.Exists(p1.Reference().Key) {
		t.Fatal("resolve deleted the target")
	}
	if data, err := p2.Resolve(); err != nil || string(data) != "shared" {
		t.Errorf("second reference = %q, %v", data, err)
	}
}

func TestCacheHits(t *testing.T) {
	backend := objectstore.New()
	s, _ := NewStore("main", backend, 1<<20)
	p, _ := s.PutBytes([]byte("cached"))
	ref := p.Reference()
	// Two distinct proxies to the same reference: the second resolve must
	// hit the cache even after the backend object disappears.
	pa := &Proxy{ref: ref, store: s}
	if _, err := pa.Resolve(); err != nil {
		t.Fatal(err)
	}
	backend.Delete(ref.Key)
	pb := &Proxy{ref: ref, store: s}
	if _, err := pb.Resolve(); err != nil {
		t.Errorf("cache miss after delete: %v", err)
	}
	if got := s.Metrics.Counter("dedup_cache_hits").Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

func TestCacheEvictionBounded(t *testing.T) {
	const budget = 64
	s, _ := NewStore("main", objectstore.New(), budget)
	for i := 0; i < 10; i++ {
		p, _ := s.PutBytes([]byte(fmt.Sprintf("object-%02d-%s", i, strings.Repeat("x", 20))))
		if _, err := s.ResolveReference(p.Reference()); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.cache.Bytes(); got > budget {
		t.Errorf("cache grew to %d bytes, budget %d", got, budget)
	}
	if s.Metrics.Counter("dedup_cache_evictions").Value() == 0 {
		t.Error("no evictions past the budget")
	}
}

func TestRegistryResolve(t *testing.T) {
	reg := NewRegistry()
	s, _ := NewStore("site-a", objectstore.New(), 0)
	reg.Register(s)
	p, _ := s.PutBytes([]byte("via registry"))
	got, err := reg.ResolveReference(p.Reference())
	if err != nil || string(got) != "via registry" {
		t.Errorf("resolve = %q, %v", got, err)
	}
	if _, err := reg.ResolveReference(Reference{Store: "nowhere", Key: "k"}); !errors.Is(err, ErrUnknownStore) {
		t.Errorf("unknown store = %v", err)
	}
	if _, err := s.ResolveReference(Reference{Store: "nowhere", Key: p.Reference().Key}); !errors.Is(err, ErrUnknownStore) {
		t.Errorf("foreign reference on store = %v", err)
	}
}

func TestPolicyMaybeProxy(t *testing.T) {
	s, _ := NewStore("main", objectstore.New(), 0)
	reg := NewRegistry()
	reg.Register(s)
	policy := Policy{MinSize: 100}

	// Small value stays inline.
	raw, proxied, err := MaybeProxy(s, policy, "tiny")
	if err != nil || proxied {
		t.Fatalf("small value proxied: %v, %v", proxied, err)
	}
	if string(raw) != `"tiny"` {
		t.Errorf("raw = %s", raw)
	}
	out, wasRef, err := MaybeResolve(reg, raw)
	if err != nil || wasRef || string(out) != `"tiny"` {
		t.Errorf("resolve inline = %s, %v, %v", out, wasRef, err)
	}

	// Large value becomes a reference.
	big := strings.Repeat("x", 1000)
	raw, proxied, err = MaybeProxy(s, policy, big)
	if err != nil || !proxied {
		t.Fatalf("large value not proxied: %v, %v", proxied, err)
	}
	if len(raw) >= 500 {
		t.Errorf("reference not small: %d bytes", len(raw))
	}
	out, wasRef, err = MaybeResolve(reg, raw)
	if err != nil || !wasRef {
		t.Fatalf("resolve ref: %v, %v", wasRef, err)
	}
	var round string
	if err := json.Unmarshal(out, &round); err != nil || round != big {
		t.Errorf("round trip lost data (%d bytes)", len(round))
	}
}

func TestPolicyDisabled(t *testing.T) {
	s, _ := NewStore("main", objectstore.New(), 0)
	raw, proxied, err := MaybeProxy(s, Policy{}, strings.Repeat("y", 10000))
	if err != nil || proxied {
		t.Errorf("zero policy proxied: %v %v", proxied, err)
	}
	if len(raw) < 10000 {
		t.Error("value truncated")
	}
}

func TestMaybeResolvePassthrough(t *testing.T) {
	reg := NewRegistry()
	for _, raw := range []string{`42`, `"str"`, `{"a": 1}`, `[1,2]`, `null`} {
		out, wasRef, err := MaybeResolve(reg, json.RawMessage(raw))
		if err != nil || wasRef || string(out) != raw {
			t.Errorf("MaybeResolve(%s) = %s, %v, %v", raw, out, wasRef, err)
		}
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := NewStore("", objectstore.New(), 0); err == nil {
		t.Error("unnamed store accepted")
	}
	if _, err := NewStore("x", nil, 0); err == nil {
		t.Error("nil backend accepted")
	}
}

// gatedBackend counts backend fetches and holds each one until release is
// closed, so concurrent resolves overlap.
type gatedBackend struct {
	*objectstore.Store
	release chan struct{}
	gets    atomic.Int64
}

func (g *gatedBackend) Get(key string) ([]byte, error) {
	g.gets.Add(1)
	<-g.release
	return g.Store.Get(key)
}

func TestConcurrentProxyResolve(t *testing.T) {
	backend := &gatedBackend{Store: objectstore.New(), release: make(chan struct{})}
	s, _ := NewStore("main", backend, 1<<20)
	p, _ := s.PutBytes([]byte("shared"))
	ref := p.Reference()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A distinct Proxy per goroutine: only the store's cache can
			// coalesce these resolves.
			px := &Proxy{ref: ref, store: s}
			if data, err := px.Resolve(); err != nil || string(data) != "shared" {
				t.Errorf("resolve = %q, %v", data, err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(backend.release)
	wg.Wait()
	if got := backend.gets.Load(); got != 1 {
		t.Errorf("backend fetches = %d for 16 concurrent resolves, want 1", got)
	}
}

func TestPropertyProxyRoundTrip(t *testing.T) {
	s, _ := NewStore("main", objectstore.New(), 1<<10)
	f := func(data []byte) bool {
		p, err := s.PutBytes(data)
		if err != nil {
			return false
		}
		got, err := p.Resolve()
		if err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

package objectstore

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// countingFetcher counts how many fetches reach the source.
type countingFetcher struct {
	src   *Store
	calls atomic.Int64
}

func (c *countingFetcher) Get(key string) ([]byte, error) {
	c.calls.Add(1)
	return c.src.Get(key)
}

func TestDedupCacheHitsAndEvictions(t *testing.T) {
	s := New()
	keys := make([]string, 4)
	for i := range keys {
		k, err := s.PutContent(bytes.Repeat([]byte{byte(i + 1)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	src := &countingFetcher{src: s}
	// Budget for two 100-byte objects.
	d := NewDedupCache(src, 200)

	for i := 0; i < 3; i++ {
		if _, err := d.Get(keys[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got := src.calls.Load(); got != 1 {
		t.Fatalf("source fetches after repeated Get = %d, want 1", got)
	}
	if hits := d.Metrics.Counter("dedup_cache_hits").Value(); hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}

	// Fill past the budget: keys[0] (least recently used after these) must
	// evict.
	if _, err := d.Get(keys[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(keys[2]); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Bytes() != 200 {
		t.Fatalf("cache = %d objects / %d bytes, want 2 / 200", d.Len(), d.Bytes())
	}
	if ev := d.Metrics.Counter("dedup_cache_evictions").Value(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	before := src.calls.Load()
	if _, err := d.Get(keys[0]); err != nil { // evicted: refetches
		t.Fatal(err)
	}
	if got := src.calls.Load(); got != before+1 {
		t.Errorf("evicted key did not refetch (calls %d -> %d)", before, got)
	}
}

func TestDedupCacheSingleflight(t *testing.T) {
	s := New()
	key, err := s.PutContent(bytes.Repeat([]byte("x"), 1000))
	if err != nil {
		t.Fatal(err)
	}
	src := &countingFetcher{src: s}
	d := NewDedupCache(src, 1<<20)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err := d.Get(key)
			if err != nil || len(data) != 1000 {
				t.Errorf("get = %d bytes, %v", len(data), err)
			}
		}()
	}
	wg.Wait()
	// Singleflight coalescing: far fewer source fetches than callers. The
	// first caller may complete before the last starts, so allow a couple.
	if got := src.calls.Load(); got > 3 {
		t.Errorf("source fetches = %d for 16 concurrent gets, want <= 3", got)
	}
}

func TestDedupCacheOversizedObjectNotRetained(t *testing.T) {
	s := New()
	key, err := s.PutContent(bytes.Repeat([]byte("y"), 500))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDedupCache(&countingFetcher{src: s}, 100)
	if _, err := d.Get(key); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Errorf("oversized object was retained (%d cached)", d.Len())
	}
}

func TestPutContentDedupSkipsReingest(t *testing.T) {
	s := New()
	data := bytes.Repeat([]byte("z"), 256)
	k1, err := s.PutContent(data)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s.PutContent(data)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("content keys differ: %s vs %s", k1, k2)
	}
	if puts := s.Metrics.Counter("puts").Value(); puts != 1 {
		t.Errorf("puts = %d, want 1 (second PutContent should dedup)", puts)
	}
	if hits := s.Metrics.Counter("dedup_hits").Value(); hits != 1 {
		t.Errorf("dedup_hits = %d, want 1", hits)
	}
}

func TestStoreReaders(t *testing.T) {
	s := New()
	payload := bytes.Repeat([]byte("stream"), 1000)
	n, err := s.PutReader("k", bytes.NewReader(payload), int64(len(payload)))
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("PutReader = %d, %v", n, err)
	}
	rd, size, err := s.GetReader("k")
	if err != nil || size != int64(len(payload)) {
		t.Fatalf("GetReader size = %d, %v", size, err)
	}
	got, _ := io.ReadAll(rd)
	rd.Close()
	if !bytes.Equal(got, payload) {
		t.Fatal("GetReader bytes differ from PutReader input")
	}
}

func TestOpenDirSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "objects")
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("durable"), 512)
	key, err := s.PutContent(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("plain/../key", []byte("odd key")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("content object after reopen: %d bytes, %v", len(got), err)
	}
	odd, err := s2.Get("plain/../key")
	if err != nil || string(odd) != "odd key" {
		t.Fatalf("odd-key object after reopen: %q, %v", odd, err)
	}

	// Deletes must remove the backing file too.
	if err := s2.Delete(key); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Get(key); err == nil {
		t.Error("deleted object resurrected after reopen")
	}
}

func TestOpenDirHostileKeysStayInside(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "objects")
	s, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"../x", "a/b", `..\y`, "/abs", "../../etc/passwd", "."}
	for _, k := range keys {
		if err := s.Put(k, []byte("v:"+k)); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	s.Close()

	s2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if got, err := s2.Get(k); err != nil || string(got) != "v:"+k {
			t.Errorf("Get(%q) after reopen = %q, %v", k, got, err)
		}
	}
	// Every file lives directly in dir; nothing escaped to its parent.
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == root || path == dir {
			return err
		}
		if filepath.Dir(path) != dir || d.IsDir() {
			t.Errorf("unexpected entry outside the store directory: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHTTPStreamingAndHead(t *testing.T) {
	s := New()
	srv, err := ServeHTTP(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())

	payload := bytes.Repeat([]byte("http"), 4096)
	key, err := c.PutContent(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Exists(key); err != nil || !ok {
		t.Fatalf("Exists = %v, %v", ok, err)
	}
	if ok, err := c.Exists("deadbeef"); err != nil || ok {
		t.Fatalf("Exists(missing) = %v, %v", ok, err)
	}

	// Second PutContent of identical bytes must skip the body upload: the
	// HEAD probe finds it, so the server-side ingress counter stays put.
	ingress := s.Metrics.Counter("ingress_bytes").Value()
	if _, err := c.PutContent(payload); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics.Counter("ingress_bytes").Value(); got != ingress {
		t.Errorf("re-upload moved ingress_bytes %d -> %d, want unchanged", ingress, got)
	}

	rd, size, err := c.GetReader(key)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(payload)) {
		t.Errorf("GetReader Content-Length = %d, want %d", size, len(payload))
	}
	got, _ := io.ReadAll(rd)
	rd.Close()
	if !bytes.Equal(got, payload) {
		t.Fatal("streamed bytes differ")
	}

	// Streamed client put with explicit size.
	big := bytes.Repeat([]byte("s"), 1<<20)
	if err := c.PutReader("bigkey", bytes.NewReader(big), int64(len(big))); err != nil {
		t.Fatal(err)
	}
	if sz, err := s.Size("bigkey"); err != nil || sz != len(big) {
		t.Fatalf("streamed put size = %d, %v", sz, err)
	}
}

func TestDedupCachePassThroughWhenDisabled(t *testing.T) {
	s := New()
	key, err := s.PutContent([]byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	src := &countingFetcher{src: s}
	d := NewDedupCache(src, 0)
	for i := 0; i < 3; i++ {
		if _, err := d.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if got := src.calls.Load(); got != 3 {
		t.Errorf("disabled cache coalesced fetches (calls = %d, want 3)", got)
	}
}

func BenchmarkDedupCacheHit(b *testing.B) {
	s := New()
	key, err := s.PutContent(bytes.Repeat([]byte("b"), 1<<20))
	if err != nil {
		b.Fatal(err)
	}
	d := NewDedupCache(s, 8<<20)
	if _, err := d.Get(key); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleContentKey() {
	fmt.Println(ContentKey([]byte("hello")) == ContentKey([]byte("hello")))
	// Output: true
}

package protocol

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// benchEnvelope is a representative hot-path frame: a 512-byte task body
// published as a batch of one, about what an idle publisher sends.
func benchEnvelope() Envelope {
	task := Task{ID: NewUUID(), Kind: KindPython, Payload: bytes.Repeat([]byte("p"), 512)}
	body, err := json.Marshal(task)
	if err != nil {
		panic(err)
	}
	return Envelope{Type: EnvPublishBatch, ID: "17",
		Bin: &PublishBatchBody{Queue: "tasks." + string(NewUUID()), Bodies: [][]byte{body}}}
}

// BenchmarkFrameWrite measures the pooled encode path (run with -benchmem;
// the point of the sync.Pool is the allocs/op column): no JSON marshal, no
// base64, varint lengths into the pooled frame buffer.
func BenchmarkFrameWrite(b *testing.B) {
	env := benchEnvelope()
	w := NewFrameWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameWriteAll measures the batched flush: 32 envelopes, one
// syscall-equivalent flush.
func BenchmarkFrameWriteAll(b *testing.B) {
	envs := make([]Envelope, 32)
	for i := range envs {
		envs[i] = benchEnvelope()
	}
	w := NewFrameWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteAll(envs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameRead measures the reusable-read-buffer decode path.
func BenchmarkFrameRead(b *testing.B) {
	var raw bytes.Buffer
	w := NewFrameWriter(&raw)
	if err := w.Write(benchEnvelope()); err != nil {
		b.Fatal(err)
	}
	frame := raw.Bytes()
	rd := bytes.NewReader(frame)
	r := NewFrameReader(rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

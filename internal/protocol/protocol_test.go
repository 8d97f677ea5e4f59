package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewUUIDFormat(t *testing.T) {
	u := NewUUID()
	if !u.Valid() {
		t.Fatalf("NewUUID produced invalid UUID %q", u)
	}
	if len(u) != 36 {
		t.Fatalf("UUID length = %d, want 36", len(u))
	}
	// version nibble must be 4, variant high bits 10
	if u[14] != '4' {
		t.Errorf("version nibble = %c, want 4", u[14])
	}
	switch u[19] {
	case '8', '9', 'a', 'b':
	default:
		t.Errorf("variant nibble = %c, want one of 89ab", u[19])
	}
}

func TestNewUUIDUnique(t *testing.T) {
	seen := make(map[UUID]bool)
	for i := 0; i < 2000; i++ {
		u := NewUUID()
		if seen[u] {
			t.Fatalf("duplicate UUID %q after %d draws", u, i)
		}
		seen[u] = true
	}
}

func TestUUIDValidRejects(t *testing.T) {
	bad := []UUID{
		"",
		"not-a-uuid",
		"00000000000000000000000000000000",      // no dashes
		"00000000-0000-0000-0000-00000000000",   // short
		"00000000-0000-0000-0000-0000000000000", // long
		"G0000000-0000-4000-8000-000000000000",  // non-hex
		"00000000_0000-4000-8000-000000000000",  // wrong separator
	}
	for _, u := range bad {
		if u.Valid() {
			t.Errorf("Valid(%q) = true, want false", u)
		}
	}
	if good := UUID("01234567-89ab-4def-8123-456789abcdef"); !good.Valid() {
		t.Errorf("Valid(%q) = false, want true", good)
	}
}

func TestTaskStateTerminal(t *testing.T) {
	cases := map[TaskState]bool{
		StateReceived:  false,
		StateWaiting:   false,
		StateDelivered: false,
		StateRunning:   false,
		StateSuccess:   true,
		StateFailed:    true,
		StateCancelled: true,
	}
	for s, want := range cases {
		if got := s.Terminal(); got != want {
			t.Errorf("%s.Terminal() = %v, want %v", s, got, want)
		}
	}
}

func TestResourceSpecNormalizeDefaults(t *testing.T) {
	n, err := ResourceSpec{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := ResourceSpec{NumNodes: 1, RanksPerNode: 1, NumRanks: 1}
	if n != want {
		t.Errorf("Normalize zero = %+v, want %+v", n, want)
	}
}

func TestResourceSpecNormalizeDerivations(t *testing.T) {
	cases := []struct {
		in, want ResourceSpec
	}{
		{ResourceSpec{NumNodes: 2, RanksPerNode: 3}, ResourceSpec{2, 3, 6}},
		{ResourceSpec{NumNodes: 2, NumRanks: 8}, ResourceSpec{2, 4, 8}},
		{ResourceSpec{NumRanks: 4}, ResourceSpec{1, 4, 4}},
		{ResourceSpec{NumNodes: 3}, ResourceSpec{3, 1, 3}},
		{ResourceSpec{NumNodes: 2, RanksPerNode: 2, NumRanks: 4}, ResourceSpec{2, 2, 4}},
	}
	for _, c := range cases {
		got, err := c.in.Normalize()
		if err != nil {
			t.Errorf("Normalize(%+v) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Normalize(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestResourceSpecNormalizeErrors(t *testing.T) {
	bad := []ResourceSpec{
		{NumNodes: 2, NumRanks: 5},                  // 5 ranks on 2 nodes
		{NumNodes: 2, RanksPerNode: 2, NumRanks: 5}, // inconsistent
		{NumNodes: -1},
		{RanksPerNode: -2},
		{NumRanks: -3},
	}
	for _, r := range bad {
		if _, err := r.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) succeeded, want error", r)
		}
	}
}

func TestResourceSpecNormalizeProperty(t *testing.T) {
	// Any successfully normalized spec satisfies nodes*rpn == ranks with
	// all fields positive.
	f := func(nodes, rpn, ranks uint8) bool {
		in := ResourceSpec{NumNodes: int(nodes % 16), RanksPerNode: int(rpn % 16), NumRanks: int(ranks % 64)}
		out, err := in.Normalize()
		if err != nil {
			return true // rejection is fine; acceptance must be consistent
		}
		return out.NumNodes > 0 && out.RanksPerNode > 0 &&
			out.NumNodes*out.RanksPerNode == out.NumRanks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	spec := ShellSpec{Command: "echo hi", Sandbox: true, WalltimeSec: 1.5}
	b, err := EncodePayload(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got ShellSpec
	if err := DecodePayload(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Command != spec.Command || got.Sandbox != spec.Sandbox || got.WalltimeSec != spec.WalltimeSec {
		t.Errorf("round trip = %+v, want %+v", got, spec)
	}
}

func TestDecodePayloadError(t *testing.T) {
	var s ShellSpec
	if err := DecodePayload([]byte("{nope"), &s); err == nil {
		t.Error("DecodePayload accepted invalid JSON")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	task := Task{ID: NewUUID(), Kind: KindShell, Payload: []byte(`{"command":"ls"}`)}
	env, err := NewEnvelope(EnvTask, string(task.ID), task)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(env); err != nil {
		t.Fatal(err)
	}
	r := NewFrameReader(&buf)
	got, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != EnvTask || got.ID != string(task.ID) {
		t.Errorf("envelope header = %q/%q, want %q/%q", got.Type, got.ID, EnvTask, task.ID)
	}
	var t2 Task
	if err := got.Decode(&t2); err != nil {
		t.Fatal(err)
	}
	if t2.ID != task.ID || t2.Kind != task.Kind {
		t.Errorf("decoded task = %+v, want %+v", t2, task)
	}
}

func TestFrameMultipleSequential(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	for i := 0; i < 100; i++ {
		if err := w.Write(MustEnvelope(EnvHeartbeat, "", map[string]int{"seq": i})); err != nil {
			t.Fatal(err)
		}
	}
	r := NewFrameReader(&buf)
	for i := 0; i < 100; i++ {
		env, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var body map[string]int
		if err := env.Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body["seq"] != i {
			t.Fatalf("frame %d out of order: got seq %d", i, body["seq"])
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("after last frame Read err = %v, want io.EOF", err)
	}
}

func TestFrameReaderEOFOnEmpty(t *testing.T) {
	r := NewFrameReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read on empty stream = %v, want io.EOF", err)
	}
}

func TestFrameReaderTruncatedHeader(t *testing.T) {
	r := NewFrameReader(strings.NewReader("\x00\x00"))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read with truncated header = %v, want io.EOF", err)
	}
}

func TestFrameReaderTruncatedBody(t *testing.T) {
	// Header says 100 bytes, provide 3.
	r := NewFrameReader(strings.NewReader("\x00\x00\x00\x64abc"))
	if _, err := r.Read(); err == nil {
		t.Error("Read with truncated body succeeded")
	}
}

func TestFrameReaderOversized(t *testing.T) {
	var hdr bytes.Buffer
	hdr.Write([]byte{0xff, 0xff, 0xff, 0xff})
	r := NewFrameReader(&hdr)
	if _, err := r.Read(); err != ErrFrameTooLarge {
		t.Errorf("Read oversized = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameWriterOversized(t *testing.T) {
	w := NewFrameWriter(io.Discard)
	big := make([]byte, MaxFrame+1)
	env := Envelope{Type: EnvTask, Body: json.RawMessage(`"x"`)}
	env.Body, _ = json.Marshal(string(big))
	if err := w.Write(env); err != ErrFrameTooLarge {
		t.Errorf("Write oversized = %v, want ErrFrameTooLarge", err)
	}
}

func TestFramePropertyRoundTrip(t *testing.T) {
	f := func(typ string, id string, body []byte) bool {
		payload, _ := json.Marshal(string(body))
		env := Envelope{Type: typ, ID: id, Body: payload}
		var buf bytes.Buffer
		w := NewFrameWriter(&buf)
		if err := w.Write(env); err != nil {
			return false
		}
		got, err := NewFrameReader(&buf).Read()
		if err != nil {
			return false
		}
		return got.Type == typ && got.ID == id && bytes.Equal(got.Body, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFrameReaderRejectsJSONFrame pins the single wire: a length-prefixed
// JSON envelope (the framing peers spoke before the binary codec became the
// only one) fails with ErrBadFrame instead of being decoded.
func TestFrameReaderRejectsJSONFrame(t *testing.T) {
	payload, err := json.Marshal(MustEnvelope(EnvHeartbeat, "1", map[string]int{"seq": 1}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, byte(len(payload))})
	buf.Write(payload)
	_, err = NewFrameReader(&buf).Read()
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("Read of a JSON frame = %v, want ErrBadFrame", err)
	}
}

// TestFrameWriterWritesBinary checks every frame leaves the writer as a
// binary envelope of the current version, whatever its type.
func TestFrameWriterWritesBinary(t *testing.T) {
	for _, env := range []Envelope{
		MustEnvelope(EnvTask, "t", Task{ID: NewUUID()}),
		{Type: EnvOK, ID: "1"},
		{Type: EnvAckBatch, Bin: &AckBatchBody{Queue: "q", Tags: []uint64{1}}},
	} {
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).Write(env); err != nil {
			t.Fatal(err)
		}
		if b := buf.Bytes(); len(b) < 6 || b[4] != binMagic || b[5] != BinVersion {
			t.Errorf("%s frame starts % x, want magic %#x version %d", env.Type, b[:6], binMagic, BinVersion)
		}
	}
}

package protocol

import (
	"globuscompute/internal/trace"
)

// Wire bodies for the framed broker protocol. They live in protocol (not
// broker) because the binary codec in binframe.go needs structured
// knowledge of each body to encode it compactly; the broker aliases them so
// its handler code reads unchanged. Message bodies travel as raw bytes; the
// JSON tags define the reference semantics the codec fuzzers check against.

// DeclareBody declares or deletes a queue, and cancels consumers (drain).
type DeclareBody struct {
	Queue string `json:"queue"`
}

// PublishBatchBody carries N messages for one queue in a single frame.
// Traces, when present, is parallel to Bodies (nil entries = untraced).
type PublishBatchBody struct {
	Queue  string           `json:"queue"`
	Bodies [][]byte         `json:"bodies"`
	Traces []*trace.Context `json:"traces,omitempty"`
}

// ConsumeBody begins consuming a queue. Deliveries arrive as
// delivery_batch frames.
type ConsumeBody struct {
	Queue    string `json:"queue"`
	Prefetch int    `json:"prefetch"`
}

// NackBody rejects one delivery: requeued, or dead-lettered when
// DeadLetter is set.
type NackBody struct {
	Queue      string `json:"queue"`
	Tag        uint64 `json:"tag"`
	DeadLetter bool   `json:"dead_letter,omitempty"`
}

// AckBatchBody acknowledges N tags on one queue in a single frame.
type AckBatchBody struct {
	Queue string   `json:"queue"`
	Tags  []uint64 `json:"tags"`
}

// DeliveryItem is one delivery inside a delivery_batch frame.
type DeliveryItem struct {
	Tag         uint64         `json:"tag"`
	Body        []byte         `json:"body"`
	Redelivered bool           `json:"redelivered,omitempty"`
	Trace       *trace.Context `json:"trace,omitempty"`
}

// DeliveryBatchBody carries N deliveries for one queue in a single frame.
type DeliveryBatchBody struct {
	Queue string         `json:"queue"`
	Items []DeliveryItem `json:"items"`
}

// ErrorBody reports a protocol-level error.
type ErrorBody struct {
	Message string `json:"message"`
}

// Package serving is the edge-cloud execution substrate: a cloud inference
// server that completes partitioned DNN inferences, and an edge client that
// runs a model prefix locally and ships the intermediate activation over a
// real network connection — the "Sending Features" arrow of the paper's
// Fig. 2, made executable.
//
// The wire protocol is checksummed binary request/response frames (wire.go)
// over a single persistent TCP (or any net.Conn) connection, opened by a
// version and feature handshake. One request carries the activation produced
// after layer `Cut` of a registered model; the response carries the logits
// the cloud computed by running layers (Cut, end).
//
// The channel is designed to survive the paper's Fig. 1 networks: requests
// carry idempotent IDs echoed by the server, and ResilientClient — the one
// offload client — replaces its connection after any transport error (a
// desynchronized stream is never reused), with redial, backoff, bounded
// retries and a circuit breaker on top. SplitExecutor degrades to edge-only
// inference — the paper's bandwidth-collapse branch — when the channel is
// unavailable.
package serving

import (
	"fmt"

	"cadmc/internal/tensor"
)

// Request is one offloaded inference continuation.
type Request struct {
	// ID identifies the logical request; the server echoes it in the
	// response. Retried attempts of one inference reuse the same ID (the
	// cloud half is pure, so replays are idempotent), and a mismatched echo
	// exposes a desynchronized stream instead of silently returning another
	// request's logits.
	ID uint64
	// ModelID names a model registered on the server.
	ModelID string
	// Cut is the layer index that produced the activation; the cloud runs
	// layers Cut+1 onward. Cut == -1 ships the raw input.
	Cut int
	// Shape is the activation shape (C, H, W).
	Shape []int
	// Activation is the row-major activation data.
	Activation []float64
}

// Response carries the completed inference or a server-side error.
type Response struct {
	// ID echoes the request ID this response answers.
	ID     uint64
	Logits []float64
	Err    string
}

// RemoteError is an application-level error the server answered with. The
// transport round trip succeeded; the request itself was rejected (unknown
// model, bad cut, shape mismatch). Remote errors are never retried and never
// poison the connection.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "serving: remote: " + e.Msg }

// DefaultMaxPayloadElems bounds the activation element count a server
// accepts per request (16Mi float64 elements = 128 MiB) unless overridden
// by Server.MaxPayloadElems.
const DefaultMaxPayloadElems = 1 << 24

// activationTensor validates and wraps a request's payload. The shape
// product is computed overflow-safely against maxElems: because every
// partial product is kept ≤ maxElems (which is far below MaxInt), a crafted
// shape can neither overflow int nor force a huge allocation.
func activationTensor(req *Request, maxElems int) (*tensor.Tensor, error) {
	if maxElems <= 0 {
		maxElems = DefaultMaxPayloadElems
	}
	if len(req.Shape) == 0 {
		return nil, fmt.Errorf("serving: request without a shape")
	}
	elems := 1
	for _, d := range req.Shape {
		if d <= 0 {
			return nil, fmt.Errorf("serving: non-positive dimension in shape %v", req.Shape)
		}
		if elems > maxElems/d {
			return nil, fmt.Errorf("serving: shape %v exceeds the %d-element payload limit",
				req.Shape, maxElems)
		}
		elems *= d
	}
	if elems != len(req.Activation) {
		return nil, fmt.Errorf("serving: shape %v needs %d elements, got %d",
			req.Shape, elems, len(req.Activation))
	}
	return tensor.FromSlice(req.Activation, req.Shape...)
}

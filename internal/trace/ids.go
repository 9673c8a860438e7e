package trace

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// Trace identity and the cross-process trace context.
//
// A trace is one request's journey through the fleet: client → gateway →
// replica → rank pipeline. Every process that touches the request tags
// its spans with the same 64-bit trace ID, carried in the frame
// protocol's JSON request header as a Context; the flight recorders and
// the metrics exemplars key on the same ID, so a slow histogram bucket,
// a /debug/flight entry and a Perfetto trace all name the same request.

// ID is a 64-bit trace identifier. The zero ID means "absent": an
// untraced request.
type ID uint64

var (
	idMu  sync.Mutex
	idRng = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// NewID returns a random non-zero identifier. IDs need to be unique per
// flight-recorder retention window (a few hundred entries), not
// cryptographically strong, so a seeded PRNG under a mutex is enough.
func NewID() ID {
	idMu.Lock()
	defer idMu.Unlock()
	for {
		if id := ID(idRng.Uint64()); id != 0 {
			return id
		}
	}
}

// String formats the ID as 16 lowercase hex digits (the form carried on
// the wire and shown in /debug/flight). The zero (absent) ID formats as
// the empty string, so it round-trips through parseID and disappears
// under json omitempty.
func (id ID) String() string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", uint64(id))
}

// parseID parses the hex form produced by String. The empty string
// parses to the zero (absent) ID without error.
func parseID(s string) (ID, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad id %q: %w", s, err)
	}
	return ID(v), nil
}

// Context is the trace context carried in a request header: the trace
// identity and whether the sender wants the span tree back in the
// reply. A nil *Context means the request is
// untraced (servers may still record locally for their own flight
// recorder).
type Context struct {
	// TraceID names the whole request tree, hex form of an ID.
	TraceID string `json:"trace_id"`
	// Sampled asks the receiver to return its span tree in the reply so
	// the caller can assemble a merged trace. Unsampled contexts still
	// propagate the ID for exemplars and flight-recorder correlation.
	Sampled bool `json:"sampled,omitempty"`
}

// NewContext returns a sampled context with a fresh trace ID — what a
// client (or a gateway fronting an untraced external caller) generates
// at the edge.
func NewContext() *Context {
	return &Context{TraceID: NewID().String(), Sampled: true}
}

// Trace parses the context's trace ID, zero when absent or malformed.
func (c *Context) Trace() ID {
	if c == nil {
		return 0
	}
	id, _ := parseID(c.TraceID)
	return id
}

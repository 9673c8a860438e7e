package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sortlast/internal/trace"
)

// Wire protocol of the frame service: length-prefixed frames over one
// TCP connection, requests answered in order.
//
//	client → server:  [u32 LE n][n bytes: JSON Request]
//	server → client:  [u32 LE n][n bytes: JSON Response]
//	                  then, iff Response.OK:
//	                  [u32 LE m][m bytes: 8-bit gray pixels, row-major]
//
// The JSON header keeps the protocol trivially debuggable and
// extensible; the pixel payload stays raw because it dominates the
// bytes. A connection carries any number of requests sequentially;
// clients wanting concurrency open several connections.

// Frame size limits. Requests are small JSON documents; replies are
// bounded by the largest image the server will render.
const (
	MaxRequestFrame = 1 << 16
	MaxReplyFrame   = 1 << 28
)

// DefaultMethod is the compositing method used when a request leaves
// Method empty. Layers that key on the resolved method (the fleet
// gateway's frame cache) normalize against it.
const DefaultMethod = "bsbrc"

// Quality contracts: a request names how much fidelity it is willing to
// trade for latency, and renderd, the gateway's cache key and the client
// library's upscaler all honor the same two names.
//
//	full    — the default: byte-identical to a plain render.
//	preview — quarter-resolution render (PreviewDims); the client
//	          upscales. Resolution degrades, pixel values do not.
const (
	QualityFull    = "full"
	QualityPreview = "preview"
)

// NormalizeQuality maps the empty string to QualityFull and rejects
// unknown names, so admission layers can fail bad contracts up front.
func NormalizeQuality(q string) (string, error) {
	switch q {
	case "", QualityFull:
		return QualityFull, nil
	case QualityPreview:
		return q, nil
	}
	return "", fmt.Errorf("server: unknown quality %q (have %s, %s)",
		q, QualityFull, QualityPreview)
}

// PreviewDims is the preview contract's render geometry: each dimension
// halves (rounding up, so odd sizes keep their last pixel column/row).
// A quarter of the rays means roughly a quarter of the render cost; the
// reply carries these reduced dimensions and the client library
// upscales back to the requested size.
func PreviewDims(w, h int) (int, int) {
	return (w + 1) / 2, (h + 1) / 2
}

// Request asks for one frame.
type Request struct {
	// Dataset is a built-in workload name (engine_low, engine_high,
	// head, cube).
	Dataset string `json:"dataset"`
	// Method is the compositing method (see sortlast.Methods). Empty
	// means bsbrc.
	Method string `json:"method,omitempty"`
	// Width and Height set the image size.
	Width  int `json:"width"`
	Height int `json:"height"`
	// RotX and RotY rotate the viewpoint in degrees.
	RotX float64 `json:"rotx,omitempty"`
	RotY float64 `json:"roty,omitempty"`
	// Shaded enables gradient-based Lambertian shading.
	Shaded bool `json:"shaded,omitempty"`
	// DeadlineMS bounds queue wait plus execution on the server side; a
	// request that cannot be dispatched before its deadline is answered
	// with CodeDeadline instead of rendering. Zero means the server
	// default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Quality is the request's quality contract: "" or "full" (exact,
	// byte-identical to an unconstrained render) or "preview"
	// (quarter-resolution render; the reply carries the reduced
	// dimensions and the client library upscales). Unknown names are
	// rejected with CodeBadRequest.
	Quality string `json:"quality,omitempty"`
	// DegradeOK opts into degraded delivery instead of failure: when
	// the admission queue is saturated the server steps a full request
	// down to preview rather than answering CodeOverloaded. The
	// delivered contract is reported in Stats.Quality.
	DegradeOK bool `json:"degrade_ok,omitempty"`

	// Trace is the distributed trace context: the caller's trace ID,
	// parent span, and sampling decision. Nil means untraced (the server
	// still records locally for its own flight recorder). When Sampled,
	// the reply carries the server's span tree in Response.Trace so the
	// caller can assemble one merged cross-process trace.
	Trace *trace.Context `json:"trace,omitempty"`
}

// Check bounds what a request can make any tier allocate, before a plan
// is built or a replica is dialled: a frame of more than MaxReplyFrame
// pixels could not be delivered anyway — its gray payload would exceed
// the reply frame limit every client enforces. renderd and the gateway
// answer a failed Check with CodeBadRequest. (Non-positive dimensions
// are the execution layer's to reject, see harness.NewPlan.)
func (r Request) Check() error {
	w, h := int64(r.Width), int64(r.Height)
	// Each side is bounded first so the product cannot overflow.
	if w > MaxReplyFrame || h > MaxReplyFrame || (w > 0 && h > 0 && w*h > MaxReplyFrame) {
		return fmt.Errorf("server: %dx%d frame exceeds the %d-pixel reply limit", r.Width, r.Height, MaxReplyFrame)
	}
	return nil
}

// Deadline is the request's time budget: DeadlineMS, or def when unset.
func (r Request) Deadline(def time.Duration) time.Duration {
	if r.DeadlineMS > 0 {
		return time.Duration(r.DeadlineMS) * time.Millisecond
	}
	return def
}

// Typed error codes carried in Response.Code. The client library maps
// them to sentinel errors.
const (
	CodeOverloaded = "overloaded"  // admission queue full — retry later
	CodeBadRequest = "bad_request" // request invalid; do not retry
	CodeDeadline   = "deadline_exceeded"
	CodeShutdown   = "shutting_down"
	CodeInternal   = "internal"
	// CodeWorldFailed means the resident rank world died or wedged while
	// the request was in flight; the world is being rebuilt and the
	// request may be retried (the supervision layer restarts the pool,
	// so a later attempt lands on a fresh world).
	CodeWorldFailed = "world_failed"
)

// Response is the header of one reply.
type Response struct {
	OK    bool   `json:"ok"`
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`

	// Width and Height echo the rendered size; the pixel payload that
	// follows holds Width*Height gray bytes.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`

	Stats FrameStats `json:"stats,omitempty"`

	// Trace is the server's span tree for this request, present only
	// when the request's trace context asked for sampling. Span-capped
	// (trace.MaxWireSpans) so the reply header stays inside
	// MaxRequestFrame.
	Trace *trace.Wire `json:"trace,omitempty"`
}

// FrameStats reports how the frame moved through the serving pipeline.
type FrameStats struct {
	// QueueMS is the time from admission to dispatch into the rank pool.
	QueueMS float64 `json:"queue_ms"`
	// RenderMS is rank 0's ray-casting wall time.
	RenderMS float64 `json:"render_ms"`
	// TotalMS is the server-side wall time from admission to reply.
	TotalMS float64 `json:"total_ms"`
	// WireBytes counts compositing bytes received across all ranks for
	// this frame. The count is exact: every rank adds its share before
	// its gather message leaves, so all of it is in before rank 0 can
	// reply.
	WireBytes int64 `json:"wire_bytes"`

	// Replica is the 1-based index of the fleet replica that rendered
	// this frame; 0 when the frame was served by a standalone renderd or
	// from the gateway's frame cache. Set only by the fleet gateway.
	Replica int `json:"replica,omitempty"`
	// Hedged reports that the fleet gateway issued a hedged dispatch to
	// a second replica for this request.
	Hedged bool `json:"hedged,omitempty"`
	// Cached reports that the reply bytes came from the gateway's
	// camera-quantized frame cache without touching a world.
	Cached bool `json:"cached,omitempty"`

	// Quality is the delivered quality contract (full or preview) —
	// what was actually rendered, which DegradeOK requests may find
	// below what they asked for. Degraded flags exactly that case.
	Quality  string `json:"quality,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`

	// TraceID names the distributed trace this frame belongs to (hex),
	// even when the request was unsampled: it keys the server's
	// /debug/flight entries and the exemplars on the latency histograms.
	TraceID string `json:"trace_id,omitempty"`
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame of at most max bytes.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// WriteJSON marshals v into one frame.
func WriteJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return WriteFrame(w, b)
}

// ReadJSON reads one frame of at most max bytes and unmarshals it into v.
func ReadJSON(r io.Reader, max int, v any) error {
	b, err := ReadFrame(r, max)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Flight is a frame flight recorder: a fixed-size ring retaining the
// span trees of the last N interesting requests, where interesting is
// decided by tail-based sampling — errors, hedged dispatches, and
// non-cached frames at or above the rolling p99 latency always stay;
// ordinary fast frames are dropped on arrival. Both renderd and the
// fleet gateway keep one and serve it at /debug/flight.
//
// A nil *Flight is the disabled recorder: Observe keeps nothing and the
// HTTP handler answers 404.
type Flight struct {
	mu      sync.Mutex
	cap     int
	seq     uint64
	entries []FlightEntry // ring, oldest overwritten
	next    int           // ring write position
	full    bool

	// Rolling latency window for the p99 keep threshold. Only
	// successful non-cached frames feed it: cache hits return in
	// microseconds, and fast rejections (overloaded/shutdown) are
	// near-instant — either would drag the quantile down until every
	// ordinary frame qualifies as ">= p99" and churns the ring. Errors
	// are kept unconditionally, so they need no say in the threshold.
	window [flightWindow]time.Duration
	wn     int
	wnext  int
}

// flightWindow sizes the rolling latency window behind the p99 keep
// threshold; 128 samples make the quantile stable without remembering
// ancient load patterns.
const flightWindow = 128

// DefaultFlightSize is the ring capacity used when a caller enables the
// flight recorder without choosing one.
const DefaultFlightSize = 64

// FlightEntry is one retained request.
type FlightEntry struct {
	// Seq is a monotonically increasing id, newest highest.
	Seq uint64 `json:"seq"`
	// TraceID is the request's distributed trace id (hex), "" if the
	// request was untraced.
	TraceID string `json:"trace_id,omitempty"`
	// At is the wall-clock completion time.
	At time.Time `json:"at"`
	// Latency is the request's total wall time at this process.
	Latency time.Duration `json:"-"`
	// Outcome is "ok" or the failure code ("world_failed", ...).
	Outcome string `json:"outcome"`
	// Hedged and Cached mirror the frame's FrameStats flags.
	Hedged bool `json:"hedged,omitempty"`
	Cached bool `json:"cached,omitempty"`
	// Detail is a short human label ("bsbrc 256x256 hydrogen").
	Detail string `json:"detail,omitempty"`
	// Reason says which tail-sampling rule kept the entry.
	Reason string `json:"reason,omitempty"`
	// Trace lazily builds the entry's span tree. Lazy because a hedged
	// request's losing attempt lands after the winner's reply: the
	// builder closes over the live attempt set, so a trace exported
	// later includes the reaped loser. May be nil (no spans retained).
	Trace func() *Wire `json:"-"`
}

// MarshalJSON adds the latency in milliseconds to the summary form.
func (e FlightEntry) MarshalJSON() ([]byte, error) {
	type plain FlightEntry
	return json.Marshal(struct {
		plain
		MS float64 `json:"ms"`
	}{plain(e), float64(e.Latency) / float64(time.Millisecond)})
}

// NewFlight returns a flight recorder retaining n entries; n <= 0 gets
// DefaultFlightSize.
func NewFlight(n int) *Flight {
	if n <= 0 {
		n = DefaultFlightSize
	}
	return &Flight{cap: n, entries: make([]FlightEntry, n)}
}

// p99Locked returns the window's 99th percentile, zero while empty (so
// the first frames are all "at or above p99" and get kept — the ring
// warms up with whatever arrives first and churns toward the true
// tail).
func (f *Flight) p99Locked() time.Duration {
	if f.wn == 0 {
		return 0
	}
	buf := make([]time.Duration, f.wn)
	copy(buf, f.window[:f.wn])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := (len(buf)*99 + 99) / 100 // ceil(0.99 n)
	if idx > len(buf) {
		idx = len(buf)
	}
	return buf[idx-1]
}

// Observe applies the tail-sampling rule to one finished request and
// retains it if it qualifies. Returns whether the entry was kept.
func (f *Flight) Observe(e FlightEntry) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()

	// Decide against the window as it stood BEFORE this observation:
	// a new slowest-ever frame is ≥ the old p99 and gets kept.
	keep := true
	switch {
	case e.Outcome != "" && e.Outcome != "ok":
		e.Reason = "error"
	case e.Hedged:
		e.Reason = "hedged"
	case !e.Cached && e.Latency >= f.p99Locked():
		e.Reason = "p99"
	default:
		keep = false
	}

	if !e.Cached && (e.Outcome == "" || e.Outcome == "ok") {
		f.window[f.wnext] = e.Latency
		f.wnext = (f.wnext + 1) % flightWindow
		if f.wn < flightWindow {
			f.wn++
		}
	}
	if !keep {
		return false
	}

	f.seq++
	e.Seq = f.seq
	f.entries[f.next] = e
	f.next = (f.next + 1) % f.cap
	if f.next == 0 {
		f.full = true
	}
	return true
}

// Len returns the number of retained entries.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.full {
		return f.cap
	}
	return f.next
}

// newestFirst returns the retained entries, newest first.
func (f *Flight) newestFirst() []FlightEntry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	if f.full {
		n = f.cap
	}
	out := make([]FlightEntry, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, f.entries[(f.next-i+f.cap)%f.cap])
	}
	return out
}

// lookup finds a retained entry by trace id or decimal sequence number.
func (f *Flight) lookup(key string) (FlightEntry, bool) {
	for _, e := range f.newestFirst() {
		if e.TraceID == key || fmt.Sprint(e.Seq) == key {
			return e, true
		}
	}
	return FlightEntry{}, false
}

// ServeHTTP serves the flight recorder:
//
//	GET /debug/flight               → {"entries": [newest first]}
//	GET /debug/flight?trace=<id>    → that entry's merged Perfetto trace
//
// trace accepts a hex trace id or an entry's seq number.
func (f *Flight) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	if key := r.URL.Query().Get("trace"); key != "" {
		e, ok := f.lookup(key)
		if !ok {
			http.Error(w, "no such flight entry", http.StatusNotFound)
			return
		}
		if e.Trace == nil {
			http.Error(w, "entry has no span tree", http.StatusNotFound)
			return
		}
		wire := e.Trace()
		if wire == nil {
			http.Error(w, "entry has no span tree", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = wire.WritePerfetto(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Entries []FlightEntry `json:"entries"`
	}{f.newestFirst()})
}

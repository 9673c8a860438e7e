package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"

	"sortlast/internal/trace"
)

// Sidecar is a daemon's HTTP observability listener. A nil *Sidecar is
// a disabled one: every method is a no-op.
type Sidecar struct {
	ln  net.Listener
	srv *http.Server
	mux *http.ServeMux
}

// StartSidecar listens on addr and serves the routes every daemon has:
// /metrics (reg, content-negotiated), /healthz (the daemon's handler),
// /debug/flight (404 when flight is nil) and /debug/pprof/. An empty
// addr disables the sidecar and returns nil.
func StartSidecar(addr string, reg *Registry, healthz http.HandlerFunc, flight *trace.Flight) (*Sidecar, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/healthz", healthz)
	mux.Handle("/debug/flight", flight)
	// Explicit pprof routes: the sidecar has its own mux, so the
	// net/http/pprof init() registrations on DefaultServeMux don't apply.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Sidecar{ln: ln, srv: &http.Server{Handler: mux}, mux: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// HandleFunc adds a daemon-specific route.
func (s *Sidecar) HandleFunc(pattern string, h http.HandlerFunc) {
	if s != nil {
		s.mux.HandleFunc(pattern, h)
	}
}

// Addr returns the listen address, nil when disabled.
func (s *Sidecar) Addr() net.Addr {
	if s == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops the sidecar, waiting for in-progress scrapes up to ctx.
func (s *Sidecar) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

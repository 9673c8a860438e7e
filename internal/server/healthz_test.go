package server

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

// The degraded window between a world failure and its rebuild is tens
// of milliseconds, so the e2e chaos tests cannot reliably observe it
// over HTTP; pin the handler's two states directly instead.
func TestHealthzReportsDegradedWorld(t *testing.T) {
	s := &Server{met: bareMetrics(0)}
	err := errors.New("rank 1: connection reset")
	s.degraded.Store(true)
	s.lastWorldErr.Store(&err)
	s.met.worldRestarts.Add(3)

	rec := httptest.NewRecorder()
	s.handleHealthz(rec, nil)
	if rec.Code != 503 {
		t.Errorf("degraded healthz status = %d, want 503", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"degraded", "rank 1: connection reset", "restarts: 3"} {
		if !strings.Contains(body, want) {
			t.Errorf("degraded healthz body %q missing %q", body, want)
		}
	}

	s.degraded.Store(false)
	rec = httptest.NewRecorder()
	s.handleHealthz(rec, nil)
	if rec.Code != 200 {
		t.Errorf("healthy healthz status = %d, want 200", rec.Code)
	}
}

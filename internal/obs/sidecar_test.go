package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"sortlast/internal/trace"
)

func get(t *testing.T, url, accept string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestSidecarRoutes drives every route the sidecar pre-wires plus one a
// daemon adds, with the flight recorder present and absent, and checks
// Shutdown leaves nothing running.
func TestSidecarRoutes(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := new(Registry)
	reg.Counter("t_total", "T.", None).Add(4)
	healthz := func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ok") }

	for _, flight := range []*trace.Flight{trace.NewFlight(4), nil} {
		sc, err := StartSidecar("127.0.0.1:0", reg, healthz, flight)
		if err != nil {
			t.Fatal(err)
		}
		sc.HandleFunc("/debug/own", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "mine") })
		base := "http://" + sc.Addr().String()

		code, ct, body := get(t, base+"/metrics", "")
		if code != 200 || ct != ContentTypeProm || !strings.Contains(body, "t_total 4\n") || strings.Contains(body, "# EOF") {
			t.Errorf("classic scrape: %d %q\n%s", code, ct, body)
		}
		code, ct, body = get(t, base+"/metrics", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5")
		if code != 200 || ct != ContentTypeOpenMetrics || !strings.HasSuffix(body, "# EOF\n") {
			t.Errorf("OpenMetrics scrape: %d %q\n%s", code, ct, body)
		}
		if code, _, body = get(t, base+"/healthz", ""); code != 200 || body != "ok\n" {
			t.Errorf("/healthz: %d %q", code, body)
		}
		if code, _, body = get(t, base+"/debug/own", ""); code != 200 || body != "mine" {
			t.Errorf("daemon route: %d %q", code, body)
		}
		wantFlight := 200
		if flight == nil {
			wantFlight = 404
		}
		if code, _, _ = get(t, base+"/debug/flight", ""); code != wantFlight {
			t.Errorf("/debug/flight with flight=%v: %d, want %d", flight != nil, code, wantFlight)
		}
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol", "/debug/pprof/goroutine?debug=1"} {
			if code, _, _ = get(t, base+path, ""); code != 200 {
				t.Errorf("%s: %d", path, code)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := sc.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		cancel()
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestSidecarDisabled: an empty address is a nil sidecar, and a nil
// sidecar is inert rather than a crash.
func TestSidecarDisabled(t *testing.T) {
	sc, err := StartSidecar("", new(Registry), nil, nil)
	if sc != nil || err != nil {
		t.Fatalf("StartSidecar(\"\") = %v, %v, want nil, nil", sc, err)
	}
	sc.HandleFunc("/x", nil)
	if a := sc.Addr(); a != nil {
		t.Errorf("nil sidecar Addr = %v", a)
	}
	if err := sc.Shutdown(context.Background()); err != nil {
		t.Errorf("nil sidecar Shutdown = %v", err)
	}
	if _, err := StartSidecar("256.0.0.1:bad", new(Registry), nil, nil); err == nil {
		t.Error("unlistenable address did not fail StartSidecar")
	}
}

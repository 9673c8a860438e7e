package server_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sortlast/internal/client"
	"sortlast/internal/core"
	"sortlast/internal/server"
)

func TestValidateMethod(t *testing.T) {
	for _, m := range append(core.Names(), "") {
		if err := server.ValidateMethod(m); err != nil {
			t.Errorf("ValidateMethod(%q) = %v, want nil (empty means the server default)", m, err)
		}
	}
	for _, m := range append([]string{"bsbrq"}, retiredMethods...) {
		var typed *server.UnknownMethodError
		if err := server.ValidateMethod(m); !errors.As(err, &typed) {
			t.Fatalf("ValidateMethod(%q) = %T %v, want *UnknownMethodError", m, err, err)
		}
		if typed.Method != m || len(typed.Known) != len(core.Names()) {
			t.Errorf("error carries %q / %d known methods", typed.Method, len(typed.Known))
		}
	}
}

// An unknown method must be rejected at admission with the typed
// bad-request code, before any rank does work.
func TestUnknownMethodRejectedAtAdmission(t *testing.T) {
	srv, cl := startServer(t, server.Config{P: 2})
	for _, m := range append([]string{"bsqrc"}, retiredMethods...) {
		_, err := cl.Render(context.Background(),
			server.Request{Dataset: "cube", Method: m, Width: 32, Height: 32})
		if !errors.Is(err, client.ErrBadRequest) {
			t.Fatalf("method %q: want ErrBadRequest, got %v", m, err)
		}
		if !strings.Contains(err.Error(), "unknown method") {
			t.Errorf("method %q: error %q should name the problem", m, err)
		}
	}
	if n := srv.WorldRestarts(); n != 0 {
		t.Errorf("world restarted %d times over bad requests", n)
	}
}

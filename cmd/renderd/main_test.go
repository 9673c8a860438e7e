package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// asCommandEnv makes the test binary behave as the renderd command, so
// the test can observe its exit status without building a second binary.
const asCommandEnv = "RENDERD_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommandEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// A served world is in-process, the flight ring has one size,
// degrading is the client's per-request opt-in and ray casting spans
// GOMAXPROCS: the flags that said otherwise are unknown flags, which the
// flag package answers with exit 2 and the usage text listing what
// exists.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-world", "mpnet"}, {"-world-addrs", "a,b"}, {"-flight", "8"}, {"-no-degrade"}, {"-workers", "2"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), asCommandEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: err = %v, want exit status 2\n%s", args, err, out)
		}
		for _, want := range []string{"flag provided but not defined: " + args[0], "-inflight"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("%v: output lacks %q:\n%s", args, want, out)
			}
		}
	}
}

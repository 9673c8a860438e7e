package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// asCommandEnv makes the test binary behave as the renderfleet command,
// so the test can observe its exit status without building a second
// binary.
const asCommandEnv = "RENDERFLEET_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommandEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// Replica worlds are in-process, the quantization step, the flight ring
// and hedging have one setting each, the cache is disabled by its byte
// budget, and ray casting spans GOMAXPROCS: the flags that said
// otherwise are unknown flags, which the flag package answers with exit
// 2 and the usage text listing what exists.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-world", "mpnet"}, {"-quant", "1"}, {"-no-hedge"}, {"-no-cache"}, {"-flight", "8"}, {"-workers", "2"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), asCommandEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: err = %v, want exit status 2\n%s", args, err, out)
		}
		for _, want := range []string{"flag provided but not defined: " + args[0], "-cache-bytes"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("%v: output lacks %q:\n%s", args, want, out)
			}
		}
	}
}

// TestNoTraceReachesReplicas pins the -no-trace pass-through: the flag
// used to switch off only the gateway's tracing, leaving every
// in-process replica allocating a per-frame recorder and feeding a
// flight ring that nothing can read (in-process replicas have no
// sidecar).
func TestNoTraceReachesReplicas(t *testing.T) {
	for _, noTrace := range []string{"true", "false"} {
		for name, v := range map[string]string{"no-trace": noTrace, "replicas": "3", "p": "2,3,2"} {
			if err := flag.Set(name, v); err != nil {
				t.Fatal(err)
			}
		}
		rcs, err := replicaConfigs()
		if err != nil {
			t.Fatal(err)
		}
		if len(rcs) != 3 {
			t.Fatalf("got %d replica configs, want 3", len(rcs))
		}
		for i, rc := range rcs {
			if rc.Server == nil {
				t.Fatalf("replica %d is not in-process", i)
			}
			if got := rc.Server.DisableTracing; got != (noTrace == "true") {
				t.Errorf("-no-trace=%s: replica %d DisableTracing = %v", noTrace, i, got)
			}
		}
		if rcs[1].Server.P != 3 {
			t.Errorf("replica 1 P = %d, want 3", rcs[1].Server.P)
		}
	}
}

package main

import (
	"flag"
	"testing"
)

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

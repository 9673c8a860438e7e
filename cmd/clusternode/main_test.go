package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sortlast/internal/harness"
)

// asRankEnv makes the test binary behave as the clusternode command, so
// the test can start one OS process per rank — the way the command is
// meant to run — without building a second binary.
const asRankEnv = "CLUSTERNODE_TEST_AS_RANK"

func TestMain(m *testing.M) {
	if os.Getenv(asRankEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// loopbackAddrs reserves n ephemeral loopback ports.
func loopbackAddrs(t *testing.T, n int) string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return strings.Join(addrs, ",")
}

// spawn starts every rank of a world as its own process and returns
// each rank's combined output and exit error.
func spawn(t *testing.T, p int, args ...string) ([]string, []error) {
	t.Helper()
	addrs := loopbackAddrs(t, p)
	outs := make([]bytes.Buffer, p)
	cmds := make([]*exec.Cmd, p)
	for r := range cmds {
		cmd := exec.Command(os.Args[0], append([]string{"-rank", fmt.Sprint(r), "-addrs", addrs, "-timeout", "30s"}, args...)...)
		cmd.Env = append(os.Environ(), asRankEnv+"=1")
		cmd.Stdout, cmd.Stderr = &outs[r], &outs[r]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[r] = cmd
	}
	text, errs := make([]string, p), make([]error, p)
	for r, cmd := range cmds {
		errs[r] = cmd.Wait()
		text[r] = outs[r].String()
	}
	return text, errs
}

// matchHarness runs the command as a real TCP world of p processes and
// compares rank 0's PGM, byte for byte, with the in-process harness run
// of the same configuration — itself validated against the sequential
// compositing oracle.
func matchHarness(t *testing.T, p int, method string) {
	t.Helper()
	dir := t.TempDir()
	got := filepath.Join(dir, "cluster.pgm")
	text, errs := spawn(t, p, "-dataset", "cube", "-method", method,
		"-size", "96", "-rotx", "20", "-roty", "35", "-out", got)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v\n%s", r, err, text[r])
		}
	}

	_, img, err := harness.RunWithImage(harness.Config{
		Dataset: "cube", Method: method, P: p,
		Width: 96, Height: 96, RotX: 20, RotY: 35,
		Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "harness.pgm")
	if err := img.WritePGMFile(want); err != nil {
		t.Fatal(err)
	}
	gb, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Errorf("rank 0's PGM (%d bytes) differs from the harness run (%d bytes)", len(gb), len(wb))
	}
}

// TestRanksMatchHarness runs dfb at a power-of-two and an odd rank
// count.
func TestRanksMatchHarness(t *testing.T) {
	for _, p := range []int{2, 3} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) { matchHarness(t, p, "dfb") })
	}
}

// Direct send — refused at odd world sizes until it took the fold plan
// as rank geometry — runs as three OS processes and exits 0 with the
// oracle's image.
func TestDirectServesOddWorld(t *testing.T) { matchHarness(t, 3, "direct") }

// The volume-file door is gone (every process regenerates the dataset):
// -in is an unknown flag, which the flag package answers with exit 2 and
// the usage text listing what exists.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	text, errs := spawn(t, 1, "-in", "x")
	var exit *exec.ExitError
	if !errors.As(errs[0], &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-in x: err = %v, want exit status 2\n%s", errs[0], text[0])
	}
	for _, want := range []string{"flag provided but not defined: -in", "-dataset"} {
		if !strings.Contains(text[0], want) {
			t.Errorf("-in x: output lacks %q:\n%s", want, text[0])
		}
	}
}

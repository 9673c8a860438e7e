package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// asCommandEnv makes the test binary behave as the composebench command,
// so the tests can observe its exit status and output.
const asCommandEnv = "COMPOSEBENCH_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommandEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCommand(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asCommandEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out.String(), errb.String(), exit
}

// A bad axis fails before the first cell: no table on stdout, and
// stderr does not open with a cell's progress dot.
func TestBadAxisFailsBeforeTheSweep(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-table", "1", "-method", "bs, nope"}, []string{`unknown compositor "nope"`, "have bs, bsbr, bslc, bsbrc, direct, ds, dfb"}},
		{[]string{"-table", "1", "-maxp", "1"}, []string{"-maxp 1", "Usage of"}},
		{[]string{"-table", "1", "-plist", "4,x"}, []string{`bad processor count "x"`}},
	} {
		stdout, stderr, exit := runCommand(t, tc.args...)
		if exit != 1 || stdout != "" || strings.HasPrefix(stderr, ".") {
			t.Errorf("%v: exit %d, stdout %q, stderr:\n%s", tc.args, exit, stdout, stderr)
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr, w) {
				t.Errorf("%v: stderr lacks %q:\n%s", tc.args, w, stderr)
			}
		}
	}
}

// -method is trimmed, and the CSV ends in the exact render imbalance: at
// P=3 the unsplit core rank holds twice the volume of each folded half.
// On the cube it reads 1.199, not about 1.5: the samples no longer
// include the provable zeros in the unsplit rank's extra volume (the
// kernel clips rays to the occupied hull and skips empty last cells).
func TestCSVShowsFoldImbalance(t *testing.T) {
	stdout, stderr, exit := runCommand(t, "-table", "1", "-method", " bsbrc", "-plist", "3", "-dataset", "cube", "-csv")
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if exit != 0 || len(lines) != 2 || !strings.HasSuffix(lines[0], ",render_imbalance") || !strings.HasPrefix(lines[1], "cube,BSBRC,3,") {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	last := lines[1][strings.LastIndex(lines[1], ",")+1:]
	if v, err := strconv.ParseFloat(last, 64); err != nil || v < 1.1 || v > 1.3 {
		t.Errorf("render_imbalance = %q, want about 1.2", last)
	}
}

// One cell is the command line for one frame: -out writes its final
// image as a PGM of the table's size, and -trace its span trace.
func TestOneCellWritesImageAndTrace(t *testing.T) {
	dir := t.TempDir()
	img, tr := filepath.Join(dir, "cube.pgm"), filepath.Join(dir, "cube.json")
	stdout, stderr, exit := runCommand(t, "-table", "1", "-dataset", "cube", "-method", "bsbrc", "-plist", "2",
		"-csv", "-out", img, "-trace", tr)
	if exit != 0 || strings.Count(stdout, "\n") != 2 {
		t.Fatalf("exit %d, stdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	pgm, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	header := "P5\n384 384\n255\n"
	if !strings.HasPrefix(string(pgm), header) || len(pgm) != len(header)+384*384 || bytes.Count(pgm[len(header):], []byte{0}) == 384*384 {
		t.Errorf("%s: %d bytes, not a lit 384x384 PGM", img, len(pgm))
	}
	var events struct{ TraceEvents []json.RawMessage }
	if js, err := os.ReadFile(tr); err != nil || json.Unmarshal(js, &events) != nil || len(events.TraceEvents) == 0 {
		t.Errorf("%s: no trace events (%v)", tr, err)
	}
}

// rendervol's flags that composebench never had, and the dfb tile edge
// it no longer takes, are the flag package's usage error: exit 2 and
// the listing of the flags that exist.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	for _, flag := range []string{"-p", "-size", "-shaded", "-validate", "-stats", "-tile"} {
		_, stderr, exit := runCommand(t, "-table", "1", flag)
		if exit != 2 || !strings.Contains(stderr, "flag provided but not defined: "+flag) || !strings.Contains(stderr, "-plist") {
			t.Errorf("%s: exit %d, stderr:\n%s", flag, exit, stderr)
		}
	}
}

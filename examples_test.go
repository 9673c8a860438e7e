package sortlast_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun builds every program under examples/ once and runs
// each to completion, so an example cannot rot while the packages it
// imports stay green. The examples write .pgm files into the working
// directory, so each runs in its own scratch directory; they run as
// parallel subtests because the slowest (scaling, rotation) take a few
// seconds each.
func TestExamplesRun(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := []string{"build", "-o", bin + string(os.PathSeparator)}
	var names []string
	for _, d := range dirs {
		if d.IsDir() {
			names = append(names, d.Name())
			build = append(build, "./examples/"+d.Name())
		}
	}
	if out, err := exec.Command("go", build...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(build, " "), err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Dir = t.TempDir()
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			// cluster checks itself against the serial render and
			// says so; exit 0 alone would not show the check ran.
			if name == "cluster" && !strings.Contains(string(out), "matches serial rendering") {
				t.Errorf("cluster did not report the serial-render match:\n%s", out)
			}
		})
	}
}

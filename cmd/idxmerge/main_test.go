package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with IDXMERGE_TEST_ARGS set: the variable holds main's arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("IDXMERGE_TEST_ARGS"); ok {
		os.Args = append([]string{"idxmerge"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnbuildableScaleExits1: a -scale the database cannot be built at
// is reported and exits 1 before any work.
func TestUnbuildableScaleExits1(t *testing.T) {
	for _, scale := range []string{"nan", "inf", "1e300"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "IDXMERGE_TEST_ARGS=-db synthetic1 -scale "+scale)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Errorf("-scale %s: %v, want exit status 1; output:\n%s", scale, err, out)
			continue
		}
		if !strings.Contains(string(out), "scale") {
			t.Errorf("-scale %s: output %q does not name the scale", scale, out)
		}
	}
}

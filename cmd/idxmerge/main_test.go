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
		requireExit1(t, "-scale "+scale, "scale")
	}
}

// TestRefusedOptionsExit1: an option the service's table refuses
// (server.BuildMergeOptions, indexmerge.CheckInitialN) exits 1 with a
// message naming what the CLI accepts, before any database is built.
func TestRefusedOptionsExit1(t *testing.T) {
	for args, want := range map[string]string{
		"-costmodel compresed": "want opt, nocost, prefilter or compressed",
		"-n -3":                "want n > 0, or 0 to tune the whole workload",
		"-constraint -0.5":     "constraint -0.5 out of range [0, +Inf)",
		"-constraint inf":      "constraint +Inf out of range [0, +Inf)",
	} {
		requireExit1(t, args, want)
	}
}

// requireExit1 runs the command on synthetic1 with args and fails t
// unless it exits 1 with want in its output.
func requireExit1(t *testing.T, args, want string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "IDXMERGE_TEST_ARGS=-db synthetic1 "+args)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Errorf("%s: %v, want exit status 1; output:\n%s", args, err, out)
		return
	}
	if !strings.Contains(string(out), want) {
		t.Errorf("%s: output %q does not say %q", args, out, want)
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
)

// TestMain runs the command itself when the test binary is re-executed
// with DBGEN_TEST_ARGS set: the variable holds main's arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("DBGEN_TEST_ARGS"); ok {
		os.Args = append([]string{"dbgen"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command is dbgen run with args: the test binary, re-executed.
func command(args string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "DBGEN_TEST_ARGS="+args)
	return cmd
}

// TestSavedSnapshotIsTheNamedBuild: the snapshot dbgen saves loads as
// the database datagen.BuildNamed builds for the same name, scale and
// seed — table by table, row counts and data bytes.
func TestSavedSnapshotIsTheNamedBuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.snap")
	if out, err := command("-db synthetic1 -scale 0.05 -save " + path).CombinedOutput(); err != nil {
		t.Fatalf("dbgen: %v\n%s", err, out)
	}
	got, err := engine.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := datagen.BuildNamed("synthetic1", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range want.Schema().Tables() {
		if g, w := got.TableRowCount(tbl.Name), want.TableRowCount(tbl.Name); g != w || w == 0 {
			t.Errorf("table %s: %d rows saved, BuildNamed builds %d", tbl.Name, g, w)
		}
	}
	if len(got.Schema().Tables()) != len(want.Schema().Tables()) || got.DataBytes() != want.DataBytes() {
		t.Errorf("saved %d tables of %d bytes, BuildNamed builds %d of %d",
			len(got.Schema().Tables()), got.DataBytes(), len(want.Schema().Tables()), want.DataBytes())
	}
}

// TestUnbuildableScaleExits1: a scale BuildNamed refuses is reported,
// exit status 1, not a panic.
func TestUnbuildableScaleExits1(t *testing.T) {
	out, err := command("-db synthetic1 -scale NaN").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(out), "scale NaN") {
		t.Errorf("-scale NaN: %v, want exit status 1 naming the scale; output:\n%s", err, out)
	}
}

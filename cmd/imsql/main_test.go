package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"indexmerge/internal/advisor"
	"indexmerge/internal/datagen"
	"indexmerge/internal/optimizer"
)

// TestMain runs the shell itself when the test binary is re-executed
// with IMSQL_TEST_ARGS set: the variable holds main's arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("IMSQL_TEST_ARGS"); ok {
		os.Args = append([]string{"imsql"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestScriptedSession: a script on standard input creates two indexes,
// runs two SELECTs into the history, explains, costs and tunes a query,
// then merges the two indexes into one and materializes it.
func TestScriptedSession(t *testing.T) {
	const script = `\create t2(c01,c04)
\create t2(c04,c07)
SELECT c01, c04 FROM t2 WHERE c01 < 20
SELECT c04, c07 FROM t2 WHERE c04 = 5 ORDER BY c07
\explain SELECT c01, c04 FROM t2 WHERE c01 < 20
\cost SELECT c04, c07 FROM t2 WHERE c04 = 5
\tune SELECT c07, c10 FROM t2 WHERE c07 = 7
\merge 15
\indexes
\q
SELECT c01 FROM t2
`
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "IMSQL_TEST_ARGS=-db synthetic1 -scale 0.05 -q")
	cmd.Stdin = strings.NewReader(script)
	b, err := cmd.CombinedOutput()
	out := string(b)
	if err != nil || strings.Contains(out, "error:") {
		t.Fatalf("session: %v\n%s", err, out)
	}
	for _, want := range []string{
		`(?m)^created t2\(c01,c04\) `,
		`(?m)^created t2\(c04,c07\) `,
		`(?m)^t2\.c01 \| t2\.c04$`,
		`(?m)^t2\.c04 \| t2\.c07$`,
		`(?m)^Project\(t2\.c01, t2\.c04\) .*\n  IndexScan\(ix_t2_c01_c04\)`,
		`(?m)^estimated cost: \d+\.\d\d$`,
		`(?m)^  recommend t2\(c07,c10\) `,
		`(?m)^  estimated cost \d+\.\d\d -> \d+\.\d\d$`,
	} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("output does not match %s:\n%s", want, out)
		}
	}
	// The shell hands the merge its indexes in definition-key order, so
	// t2(c01,c04) leads and the merged key is the same in every run.
	if !strings.Contains(out, "\n  merged t2(c01,c04) + t2(c04,c07) -> t2(c01,c04,c07)\n") ||
		!regexp.MustCompile(`(?m)^materialized the merged configuration\n  t2\(c01,c04,c07\) +\S+ MB  height=\d+\n$`).MatchString(out) {
		t.Errorf("the two indexes did not merge into t2(c01,c04,c07), materialized:\n%s", out)
	}
	if n := strings.Count(out, " rows, "); n != 2 {
		t.Errorf("%d SELECTs reported rows, want 2 (none after \\q):\n%s", n, out)
	}
}

// TestCanceledCommandsKeepTheShell: \tune and \merge run under the
// shell's context, the parent of the one Ctrl-C cancels. Canceled, each
// prints the error and materializes nothing, and the shell reads the
// next command.
func TestCanceledCommandsKeepTheShell(t *testing.T) {
	db, err := datagen.BuildNamed("synthetic1", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	sh := &shell{db: db, opt: optimizer.New(db), ctx: ctx, out: &out, quiet: true}
	sh.adv = advisor.New(db, sh.opt)
	sh.repl(bufio.NewScanner(strings.NewReader(`\create t2(c01,c04)
\create t2(c04,c07)
SELECT c01, c04 FROM t2 WHERE c01 < 20
\tune SELECT c07, c10 FROM t2 WHERE c07 = 7
\merge 15
\indexes
`)))
	if n := strings.Count(out.String(), "error: context canceled\n"); n != 2 {
		t.Errorf("%d commands reported the cancellation, want \\tune and \\merge:\n%s", n, out.String())
	}
	var keys []string
	for _, ix := range db.Indexes() {
		keys = append(keys, ix.Def().Key())
	}
	if got := strings.Join(keys, " "); got != "t2(c01,c04) t2(c04,c07)" {
		t.Errorf("indexes after the canceled merge: %s", got)
	}
	if !regexp.MustCompile(`(?m)^  t2\(c01,c04\) .*\n  t2\(c04,c07\) `).MatchString(out.String()) {
		t.Errorf("the shell did not list the indexes after the canceled commands:\n%s", out.String())
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"indexmerge/internal/apitest"
	"indexmerge/internal/server"
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
	out, err := command("-db synthetic1 " + args).CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Errorf("%s: %v, want exit status 1; output:\n%s", args, err, out)
		return
	}
	if !strings.Contains(string(out), want) {
		t.Errorf("%s: output %q does not say %q", args, out, want)
	}
}

// TestDaemonJobsMatchTheCLI: on the same inputs a daemon job's result
// and the CLI's -json output are the same JSON, elapsed time dropped.
// Jobs on a warm registration differ only in making fewer optimizer
// calls: none for a repeated merge.
func TestDaemonJobsMatchTheCLI(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 2, QueueCap: 8, CacheMaxEntries: 1 << 20,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &apitest.Client{T: t, URL: ts.URL}
	var wi server.WorkloadInfo
	c.Do("", "POST", "/v1/sessions", `{"name":"ci","db":"synthetic1","seed":1}`, nil)
	c.Do("", "POST", "/v1/sessions/ci/workloads", `{"name":"w","generate":{"class":"complex","queries":12,"seed":12}}`, nil)
	c.Do("", "POST", "/v1/sessions/ci/workloads", `{"name":"wd","generate":{"class":"complex","queries":12,"seed":12,"duplication":30}}`, &wi)
	const cli = "-db synthetic1 -seed 1 -queries 12 -n 6 -constraint 0.10 -json"
	var st server.JobStatus
	var res struct{ Merge json.RawMessage }
	for _, tc := range []struct {
		workload, options, cli string
		calls                  func(job, cli int64) bool
	}{
		{"w", "", cli, func(j, c int64) bool { return j == c }},
		{"w", "", cli, func(j, c int64) bool { return j == 0 }}, // the registration's cost table keeps the cells
		{"w", `,"dual_budget_frac":0.5`, cli + " -dual 0.5", func(j, c int64) bool { return j > 0 && j < c }},
		{"wd", `,"costmodel":"compressed"`, cli + " -duplication 30 -costmodel compressed", func(j, c int64) bool { return j == c }},
	} {
		id := c.Submit("", "/v1/sessions/ci/jobs", `{"workload":"`+tc.workload+`","initial":{"n":6,"seed":1},"options":{"constraint":0.10`+tc.options+`}}`)
		st = c.Wait(id, "done")
		c.Do("", "GET", "/v1/jobs/"+id+"/result", "", &res)
		out, err := command(tc.cli).Output()
		if err != nil {
			t.Fatalf("idxmerge %s: %v", tc.cli, err)
		}
		got, calls := canonical(t, res.Merge)
		want, cliCalls := canonical(t, out)
		if got != want || !tc.calls(calls, cliCalls) {
			t.Errorf("job over %s with options %q, %d optimizer calls:\n%s\nCLI %s, %d:\n%s", tc.workload, tc.options, calls, got, tc.cli, cliCalls, want)
		}
	}
	var p server.MergeResultPayload
	if err := json.Unmarshal(res.Merge, &p); err != nil || wi.Templates <= 0 || wi.DedupRatio <= 1 || st.Templates <= 0 || st.DedupRatio <= 1 ||
		p.Templates <= 0 || p.DedupRatio <= 1 || p.CostTableHits+p.CostTableMisses == 0 {
		t.Errorf("compressed: workload %+v, job status %+v, result %s", wi, st, res.Merge)
	}
	// The listing carries each registration's templates and cost table.
	var wis []server.WorkloadInfo
	c.Do("", "GET", "/v1/sessions/ci/workloads", "", &wis)
	if len(wis) != 2 || wis[1].Name != "wd" || wis[1].Templates != wi.Templates || wis[1].CostTableHits+wis[1].CostTableMisses == 0 {
		t.Errorf("workloads after the jobs: %+v", wis)
	}
	c.Metrics(`idxmerged_jobs_total{state="done"} 4` + "\n")
	if _, _, m := c.Call("", "GET", "/metrics", ""); bytes.Contains(m, []byte("session=")) {
		t.Errorf("/metrics has a series labeled by session:\n%s", m)
	}
}

// command is the command run with args: the test binary, re-executed.
func command(args string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "IDXMERGE_TEST_ARGS="+args)
	return cmd
}

// canonical re-encodes a JSON object with sorted keys and without its
// measured fields, elapsed_seconds and optimizer_calls; it returns the
// latter apart.
func canonical(t *testing.T, data []byte) (string, int64) {
	var v map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%v: %s", err, data)
	}
	n, _ := v["optimizer_calls"].(json.Number)
	calls, err := n.Int64()
	if err != nil {
		t.Fatalf("optimizer_calls: %v: %s", err, data)
	}
	delete(v, "elapsed_seconds")
	delete(v, "optimizer_calls")
	b, _ := json.Marshal(v)
	return string(b), calls
}

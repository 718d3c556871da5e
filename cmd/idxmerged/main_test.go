package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"indexmerge/internal/apitest"
	"indexmerge/internal/server"
)

// TestMain runs the daemon itself when the test binary is re-executed
// with IDXMERGED_TEST_ARGS set: the variable holds main's arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("IDXMERGED_TEST_ARGS"); ok {
		os.Args = append([]string{"idxmerged"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const (
	mergeJob = `{"workload":"w","initial":{"n":6,"seed":1},"options":{"constraint":0.10}}`
	genW     = `{"name":"w","generate":{"class":"complex","queries":12,"seed":12}}`
	batch    = `{"generate":{"class":"complex","queries":12,"seed":12}}`
	slow     = "point=optimizer.cost,mode=latency,latency=" // every what-if call sleeps this long
)

// TestSIGKILLAndSIGTERM: a journaled daemon killed with a job in flight
// comes back with its session and workload and the job failed with the
// recovery reason. Job IDs count on past it; SIGTERM lets the next job
// finish and the daemon exit 0, and the journal says that job is done.
func TestSIGKILLAndSIGTERM(t *testing.T) {
	t.Parallel()
	journal := filepath.Join(t.TempDir(), "j")
	d := start(t, "-journal", journal, "-faults", slow+"75ms")
	d.Do("", "POST", "/v1/sessions", `{"name":"prod","db":"synthetic1","seed":1}`, nil)
	d.Do("", "POST", "/v1/sessions/prod/workloads", genW, nil)
	job := d.Submit("", "/v1/sessions/prod/jobs", mergeJob)
	d.Wait(job, "running")
	d.kill()

	d = start(t, "-journal", journal, "-faults", slow+"5ms")
	var list []server.SessionInfo
	var info server.SessionInfo
	var st server.JobStatus
	d.Do("", "GET", "/v1/sessions", "", &list)
	d.Do("", "GET", "/v1/sessions/prod", "", &info)
	d.Do("", "GET", "/v1/jobs/"+job, "", &st)
	if len(list) != 1 || list[0].Name != "prod" || !reflect.DeepEqual(info.Workloads, []string{"w"}) ||
		st.State != "failed" || !st.Recovered || !strings.Contains(st.Error, "interrupted by server restart") {
		t.Fatalf("after restart: sessions %+v, workloads %v, job %+v", list, info.Workloads, st)
	}
	d.Metrics("idxmerged_recovered_sessions_total 1\n", "idxmerged_recovered_interrupted_jobs_total 1\n")
	job2 := d.Submit("", "/v1/sessions/prod/jobs", mergeJob)
	d.Wait(job2, "running")
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); job2 == job || err != nil || strings.Contains(d.log.String(), "drain deadline hit") {
		t.Fatalf("job %s after %s; daemon after SIGTERM: %v\n%s", job2, job, err, d.log.String())
	}
	if st = start(t, "-journal", journal).Wait(job2, "done"); st.Error != "" {
		t.Errorf("drained job after restart: %+v", st)
	}
}

// TestContinuousLoopReplays: a continuous session applies, rolls back
// on a batch the -faults rule scales 25×, re-applies and observes a
// clean batch; after a SIGKILL the journal replays the loop's counters
// and configuration, and the replayed loop skips an unchanged window.
func TestContinuousLoopReplays(t *testing.T) {
	t.Parallel()
	journal := filepath.Join(t.TempDir(), "j")
	// The observe point fires only once a configuration is applied, so
	// count=1 lands on the first batch after the first apply.
	d := start(t, "-journal", journal, "-faults", "point=continuous.observe,mode=scale,scale=25,count=1")
	d.Do("", "POST", "/v1/sessions", `{"name":"live","db":"synthetic1","seed":1,"continuous":{"seed":7}}`, nil)
	in1, r1, c1 := d.ingest(), d.retune(), d.loop()
	in2, c2 := d.ingest(), d.loop() // poisoned
	r2, in3 := d.retune(), d.ingest()
	if in1.Statements != 12 || in1.WindowTemplates == 0 || !r1.Applied || len(r1.Indexes) == 0 || c1.Applies != 1 ||
		!in2.RolledBack || in2.ObservedRatio <= 2 || c2.Rollbacks != 1 || len(c2.Applied) != 0 ||
		!r2.Applied || in3.RolledBack || in3.ObservedRatio >= 2 {
		t.Fatalf("ingest %+v, retune %+v, loop %+v; poisoned ingest %+v, loop %+v; retune %+v, clean ingest %+v",
			in1, r1, c1, in2, c2, r2, in3)
	}
	d.Metrics("idxmerged_applies_total 2\n", "idxmerged_rollbacks_total 1\n")
	before := d.loop()
	d.kill()

	d = start(t, "-journal", journal)
	if after := d.loop(); before.Applies != after.Applies || before.Rollbacks != after.Rollbacks ||
		!reflect.DeepEqual(before.Applied, after.Applied) || before.AppliedEst != after.AppliedEst {
		t.Fatalf("replayed loop %+v, before the kill %+v", after, before)
	}
	if r := d.retune(); !r.Skipped {
		t.Errorf("retune of an unchanged window after replay: %+v, want skipped", r)
	}
}

// TestQuotaFlagsAdmit: the -quota-* flags reach admission as
// structured 429s with Retry-After; another tenant's session is a 403;
// a job past its deadline frees its slot at once; /metrics shows each.
func TestQuotaFlagsAdmit(t *testing.T) {
	t.Parallel()
	d := start(t, "-quota-sessions", "1", "-quota-jobs", "1", "-quota-ingest-rate", "5", "-quota-ingest-burst", "5",
		"-faults", slow+"30ms")
	d.Do("alice", "POST", "/v1/sessions", `{"name":"a1","db":"synthetic1","seed":1,"continuous":{"seed":7}}`, nil)
	e, hdr := d.Refused("alice", "POST", "/v1/sessions", `{"name":"a2","db":"synthetic1","seed":1}`, 429, "quota_sessions")
	if hdr.Get("Retry-After") == "" || e.Tenant != "alice" || e.Limit != 1 || e.Current != 1 || e.RetryAfterSec < 1 {
		t.Errorf("second session: Retry-After %q, %+v", hdr.Get("Retry-After"), e)
	}
	d.Refused("bob", "DELETE", "/v1/sessions/a1", "", 403, "tenant_mismatch")
	d.Do("alice", "POST", "/v1/sessions/a1/workloads", genW, nil)
	// 12 statements overrun the 5-token bucket.
	if e, _ := d.Refused("alice", "POST", "/v1/sessions/a1/ingest", batch, 429, "quota_ingest_rate"); e.RetryAfterSec < 1 {
		t.Errorf("ingest over the rate: %+v", e)
	}
	// A 50ms deadline expires mid-run; the slot is back with the state,
	// and the next job holds it.
	const job = `{"workload":"w","initial":{"n":4,"seed":1},"options":{%s}}`
	d.Wait(d.Submit("alice", "/v1/sessions/a1/jobs", fmt.Sprintf(job, `"timeout_ms":50`)), "deadline_exceeded")
	d.Submit("alice", "/v1/sessions/a1/jobs", fmt.Sprintf(job, ""))
	d.Refused("alice", "POST", "/v1/sessions/a1/jobs", fmt.Sprintf(job, ""), 429, "quota_jobs")
	// bob's 403 counts under the session's owner: a claimed tenant adds
	// no series.
	d.Metrics(`idxmerged_tenant_sessions{tenant="alice"} 1`+"\n", `idxmerged_shed_total{reason="quota_sessions",tenant="alice"} `,
		`idxmerged_shed_total{reason="tenant_mismatch",tenant="alice"} `, `idxmerged_jobs_total{state="deadline_exceeded"} 1`+"\n")
}

// TestBindFailureExits1: an address the daemon cannot bind is logged
// and exits 1.
func TestBindFailureExits1(t *testing.T) {
	t.Parallel()
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "IDXMERGED_TEST_ARGS=-addr "+taken.Addr().String())
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(out), `"msg":"listen"`) ||
		strings.Contains(string(out), "idxmerged listening") {
		t.Errorf("-addr %s, already bound: %v, want exit status 1 before listening; output:\n%s", taken.Addr(), err, out)
	}
}

// daemon is one idxmerged process a test started.
type daemon struct {
	apitest.Client
	cmd *exec.Cmd
	log syncBuffer // standard error
}

// syncBuffer is a buffer that the process's output copier writes while
// the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// start runs idxmerged with args on a loopback port the kernel picks,
// and returns once the daemon's log says which port: it logs that line
// after binding, so requests from then on are served. The test's end
// kills it.
func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{Client: apitest.Client{T: t}}
	d.cmd = exec.Command(os.Args[0], "-test.run=^$")
	d.cmd.Env = append(os.Environ(), "IDXMERGED_TEST_ARGS=-addr 127.0.0.1:0 "+strings.Join(args, " "))
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.kill)
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		for _, line := range strings.Split(d.log.String(), "\n") {
			var rec struct{ Msg, Addr string }
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "idxmerged listening" {
				d.URL = "http://" + rec.Addr
				return d
			}
		}
	}
	t.Fatalf("idxmerged %v never said where it listens:\n%s", args, d.log.String())
	return nil
}

// kill sends SIGKILL and waits for the process. Both errors are
// expected and dropped: Kill fails once the process has been waited
// for, and Wait reports the kill.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// ingest posts one generated batch to session live.
func (d *daemon) ingest() (r server.IngestResponse) {
	d.T.Helper()
	d.Do("", "POST", "/v1/sessions/live/ingest", batch, &r)
	return r
}

// retune runs one re-tune of session live and returns its result.
func (d *daemon) retune() (r server.RetuneResultPayload) {
	d.T.Helper()
	id := d.Submit("", "/v1/sessions/live/retune", "")
	d.Wait(id, "done")
	d.Do("", "GET", "/v1/jobs/"+id+"/result", "", &server.JobResult{Retune: &r})
	return r
}

// loop returns session live's continuous state.
func (d *daemon) loop() (c server.ContinuousInfo) {
	d.T.Helper()
	d.Do("", "GET", "/v1/sessions/live", "", &server.SessionInfo{Continuous: &c})
	return c
}

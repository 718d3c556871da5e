package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"indexmerge/internal/server/quota"
)

// TestTerminalStateMeansReleased: a client that has read a terminal
// state may act on it. With one job slot per tenant the next submission
// must be admitted, and the session must be deletable, in the very next
// request — the slot and the session lock are returned before the state
// is published, not a journal fsync after it.
func TestTerminalStateMeansReleased(t *testing.T) {
	h := newTestServer(t, Config{
		JournalPath: filepath.Join(t.TempDir(), "state.jsonl"),
		Quota:       quota.Limits{MaxJobs: 1},
	})
	h.newSession(t, "s")

	const resubmits, deletes = 200, 100
	refused := map[int]int{}
	submit := func(session string) string {
		var resp SubmitJobResponse
		if code := h.call(t, "POST", "/v1/sessions/"+session+"/jobs", quickJob, &resp); code != http.StatusAccepted {
			refused[code]++
			return ""
		}
		return resp.ID
	}
	// Every submission but the first comes right after a poll that showed
	// the previous job terminal.
	for i := 0; i <= resubmits; i++ {
		if id := submit("s"); id != "" {
			h.pollTerminal(t, id, 0)
		} else {
			time.Sleep(5 * time.Millisecond) // let the slot come back; the next round counts again
		}
	}
	if len(refused) != 0 {
		t.Errorf("of %d submissions sent right after a terminal poll, refused by status: %v", resubmits, refused)
	}

	busy := 0
	for i := 0; i < deletes; i++ {
		name := fmt.Sprintf("d%d", i)
		h.newSession(t, name)
		id := submit(name)
		if id == "" {
			t.Fatalf("round %d: submission refused: %v", i, refused)
		}
		h.pollTerminal(t, id, 0)
		if code := h.call(t, "DELETE", "/v1/sessions/"+name, nil, nil); code != http.StatusOK {
			busy++
			time.Sleep(5 * time.Millisecond)
			h.mustCall(t, "DELETE", "/v1/sessions/"+name, nil, nil, http.StatusOK)
		}
	}
	if busy != 0 {
		t.Errorf("%d of %d deletes sent right after a terminal poll were refused", busy, deletes)
	}
}

var jobsTotalLine = regexp.MustCompile(`(?m)^idxmerged_jobs_total\{state="(\w+)"\} (\d+)$`)

// TestJobEndsExactlyOnce walks every exit of a job's lifecycle and
// checks the one thing they share: the job ends once. One increment of
// idxmerged_jobs_total, in its state; the tenant's slot back; one
// job_end record; a finish time; and a cancel afterwards changes
// nothing. A refused submission is not a job: no count, no record, no
// slot held.
func TestJobEndsExactlyOnce(t *testing.T) {
	untilCanceled := func(ctx context.Context, _ *Job) (*JobResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	// direct submits a job with a hand-written body through the server's
	// one submit path.
	direct := func(t *testing.T, h *testServer, session string, timeout time.Duration, run jobRun) string {
		sess, _ := h.srv.reg.Get(session)
		job, err := h.srv.submit("merge", sess, "w", timeout, run)
		if err != nil {
			t.Fatal(err)
		}
		return job.id
	}

	cases := []struct {
		name string
		cfg  Config
		// exit drives one job (on session "s"; "other" exists too) to its
		// end and returns its ID, or "" when the submission was refused.
		exit func(t *testing.T, h *testServer) string
		want JobState
	}{
		{name: "done", want: JobDone, exit: func(t *testing.T, h *testServer) string {
			return h.submitJob(t, "s")
		}},
		{name: "failed", want: JobFailed, exit: func(t *testing.T, h *testServer) string {
			return direct(t, h, "s", 0, func(context.Context, *Job) (*JobResult, error) {
				return nil, errors.New("no")
			})
		}},
		{name: "panicked", want: JobFailed, exit: func(t *testing.T, h *testServer) string {
			return direct(t, h, "s", 0, func(context.Context, *Job) (*JobResult, error) { panic("boom") })
		}},
		{name: "canceled while queued", want: JobCanceled, cfg: Config{Workers: 1},
			exit: func(t *testing.T, h *testServer) string {
				_, release := h.park(t, "other")
				id := h.submitJob(t, "s")
				h.mustCall(t, "POST", "/v1/jobs/"+id+"/cancel", nil, nil, http.StatusAccepted)
				release()
				return id
			}},
		{name: "canceled while running", want: JobCanceled, exit: func(t *testing.T, h *testServer) string {
			id := direct(t, h, "s", 0, untilCanceled)
			for h.srv.jobs.Gauges().Running == 0 {
				time.Sleep(time.Millisecond)
			}
			h.mustCall(t, "POST", "/v1/jobs/"+id+"/cancel", nil, nil, http.StatusAccepted)
			return id
		}},
		{name: "deadline while waiting for the session", want: JobDeadlineExceeded,
			exit: func(t *testing.T, h *testServer) string {
				_, release := h.park(t, "s")
				id := direct(t, h, "s", 30*time.Millisecond, untilCanceled)
				h.waitTerminal(t, id)
				release()
				return id
			}},
		{name: "deadline while running", want: JobDeadlineExceeded, exit: func(t *testing.T, h *testServer) string {
			return direct(t, h, "s", 30*time.Millisecond, untilCanceled)
		}},
		{name: "session deleted", want: JobFailed, cfg: Config{Workers: 1},
			exit: func(t *testing.T, h *testServer) string {
				_, release := h.park(t, "other")
				id := h.submitJob(t, "s")
				h.mustCall(t, "DELETE", "/v1/sessions/s", nil, nil, http.StatusOK)
				release()
				return id
			}},
		{name: "queue full", cfg: Config{Workers: 1, QueueCap: 1},
			exit: func(t *testing.T, h *testServer) string {
				_, release := h.park(t, "other")
				h.submitJob(t, "other") // fills the queue
				h.mustCall(t, "POST", "/v1/sessions/s/jobs", quickJob, nil, http.StatusTooManyRequests)
				release()
				return ""
			}},
		{name: "draining", exit: func(t *testing.T, h *testServer) string {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := h.srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			h.mustCall(t, "POST", "/v1/sessions/s/jobs", quickJob, nil, http.StatusServiceUnavailable)
			return ""
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "state.jsonl")
			cfg := tc.cfg
			cfg.JournalPath = journal
			h := newTestServer(t, cfg)
			for _, name := range []string{"s", "other"} {
				h.mustCall(t, "POST", "/v1/sessions", CreateSessionRequest{Name: name, DB: fixtureDB(t), Tenant: "t-" + name}, nil, http.StatusCreated)
				h.mustCall(t, "POST", "/v1/sessions/"+name+"/workloads", RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, nil, http.StatusCreated)
			}

			id := tc.exit(t, h)
			var ended JobStatus
			if id != "" {
				ended = h.waitTerminal(t, id)
				if ended.State != string(tc.want) || ended.FinishedAt == nil {
					t.Fatalf("job ended %s (%q), finished at %v; want %s and a finish time", ended.State, ended.Error, ended.FinishedAt, tc.want)
				}
			}
			// Whatever else the case ran ends too; drained, every job_end
			// that will ever be written is in the journal.
			for _, st := range h.srv.jobs.List() {
				h.waitTerminal(t, st.ID)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := h.srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if id != "" {
				var again JobStatus
				h.mustCall(t, "POST", "/v1/jobs/"+id+"/cancel", nil, &again, http.StatusAccepted)
				if again.State != ended.State || again.Error != ended.Error || !again.FinishedAt.Equal(*ended.FinishedAt) {
					t.Errorf("cancel after the end changed the job: %+v -> %+v", ended, again)
				}
			}

			// One count per job, in the state it ended in.
			want := map[string]int{}
			for _, st := range h.srv.jobs.List() {
				want[st.State]++
			}
			got := map[string]int{}
			for _, m := range jobsTotalLine.FindAllStringSubmatch(h.metricsText(t), -1) {
				if n, _ := strconv.Atoi(m[2]); n != 0 {
					got[m[1]] = n
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("idxmerged_jobs_total = %v, want %v (one per job)", got, want)
			}
			if active := h.srv.jobs.activeByTenant(); len(active) != 0 {
				t.Errorf("tenants still counted with queued or running jobs: %v", active)
			}
			// One job record and one job_end per job, none for a refusal.
			events, err := ReadJournal(journal)
			if err != nil {
				t.Fatal(err)
			}
			records := map[string]int{}
			for _, ev := range events {
				if ev.T == evJob || ev.T == evJobEnd {
					records[ev.T+" "+ev.JobID]++
				}
			}
			jobs := h.srv.jobs.List()
			for _, st := range jobs {
				if records[evJob+" "+st.ID] != 1 || records[evJobEnd+" "+st.ID] != 1 {
					t.Errorf("job %s: %d job and %d job_end records, want one of each",
						st.ID, records[evJob+" "+st.ID], records[evJobEnd+" "+st.ID])
				}
			}
			if len(records) != 2*len(jobs) {
				t.Errorf("journal holds %v for %d jobs", records, len(jobs))
			}
		})
	}
}

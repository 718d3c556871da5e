package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"

	"indexmerge/internal/faults"
)

// TestMetricsSeriesAreBounded: /metrics has one series per fact, with
// labels drawn only from routes, status codes, job states, shed reasons
// and the tenants that hold a live session. Phase A takes one tenant's
// plain and continuous session through a registration, a job, a
// costing, an ingest, a retune, a foreign tenant's 403 and a session
// creation refused at brownout stage 3. Phase B repeats that for 20
// more session pairs, then sends 50 session-route requests claiming
// distinct random tenants and 50 refused creations for distinct new
// tenants. The set of series (name and labels) after phase B is the
// one after phase A, and both expositions are well formed.
func TestMetricsSeriesAreBounded(t *testing.T) {
	h := newTestServer(t, Config{MemoryBudgetBytes: 1 << 30})
	db := fixtureDB(t)
	rng := rand.New(rand.NewSource(1))
	claim := func(prefix string) string { return fmt.Sprintf("%s-%x", prefix, rng.Uint64()) }
	const owner = "acme"
	// stage3 drives the ladder to stage 3 until faults.Reset; the next
	// admission then finds it back at 0.
	stage3 := func() {
		faults.Install(faults.Rule{Point: faults.BrownoutStage, Mode: faults.ModeScale, Scale: 1e9})
	}
	t.Cleanup(faults.Reset)
	refuseCreate := func(tenant string) {
		t.Helper()
		var e ErrorResponse
		if code := h.callAs(t, tenant, "POST", "/v1/sessions", CreateSessionRequest{Name: "late", DB: db}, &e); code != http.StatusTooManyRequests || e.Code != "brownout" {
			t.Fatalf("creation at stage 3: %d %+v", code, e)
		}
	}
	trespass := func(tenant string) {
		t.Helper()
		var e ErrorResponse
		if code := h.callAs(t, tenant, "POST", "/v1/sessions/p0/cost", CostRequest{Workload: "w", Indexes: fixtureIndexes}, &e); code != http.StatusForbidden || e.Code != "tenant_mismatch" || e.Tenant != tenant {
			t.Fatalf("foreign claim: %d %+v", code, e)
		}
	}
	round := func(i int) {
		t.Helper()
		plain, live := fmt.Sprintf("p%d", i), fmt.Sprintf("c%d", i)
		want := func(code, wantCode int, what string) {
			t.Helper()
			if code != wantCode {
				t.Fatalf("%s: status %d, want %d", what, code, wantCode)
			}
		}
		want(h.callAs(t, owner, "POST", "/v1/sessions", CreateSessionRequest{Name: plain, DB: db}, nil), http.StatusCreated, "create "+plain)
		want(h.callAs(t, owner, "POST", "/v1/sessions", CreateSessionRequest{Name: live, DB: db, Continuous: &ContinuousSpec{Seed: 5}}, nil), http.StatusCreated, "create "+live)
		want(h.callAs(t, owner, "POST", "/v1/sessions/"+plain+"/workloads", RegisterWorkloadRequest{Name: "w", SQL: fixtureSQL}, nil), http.StatusCreated, "register")
		if st := h.waitTerminal(t, h.submitJob(t, plain)); st.State != string(JobDone) {
			t.Fatalf("job on %s: %+v", plain, st)
		}
		want(h.callAs(t, owner, "POST", "/v1/sessions/"+plain+"/cost", CostRequest{Workload: "w", Indexes: fixtureIndexes}, nil), http.StatusOK, "cost")
		h.ingest(t, live, fixtureSQL)
		h.retune(t, live)
		trespass(claim("intruder"))
		stage3()
		refuseCreate(claim("guest"))
		faults.Reset()
	}

	h.metricsText(t) // GET /metrics is a route of the mix: its first scrape is counted by the second
	round(0)
	textA := h.metricsText(t)
	for _, want := range []string{
		`idxmerged_shed_total{reason="tenant_mismatch",tenant="acme"} 1` + "\n",
		`idxmerged_shed_total{reason="brownout",tenant=""} 1` + "\n",
		`idxmerged_tenant_sessions{tenant="acme"} 2` + "\n",
		`idxmerged_jobs_total{state="done"} 2` + "\n",
	} {
		if !strings.Contains(textA, want) {
			t.Errorf("phase A exposition lacks %q", want)
		}
	}

	for i := 1; i <= 20; i++ {
		round(i)
	}
	for i := 0; i < 50; i++ {
		trespass(claim("intruder"))
	}
	stage3()
	for i := 0; i < 50; i++ {
		refuseCreate(claim("newcomer"))
	}
	faults.Reset()
	textB := h.metricsText(t)

	seriesA, seriesB := checkExposition(t, "A", textA), checkExposition(t, "B", textB)
	if !slices.Equal(seriesA, seriesB) {
		t.Errorf("series after phase B differ from phase A:\nonly after A: %v\nonly after B: %v",
			missing(seriesA, seriesB), missing(seriesB, seriesA))
	}
	if !strings.Contains(textB, `idxmerged_shed_total{reason="brownout",tenant=""} 71`+"\n") ||
		!strings.Contains(textB, `idxmerged_shed_total{reason="tenant_mismatch",tenant="acme"} 71`+"\n") {
		t.Errorf("phase B shed counts:\n%s", grepLines(textB, "idxmerged_shed_total"))
	}
}

// checkExposition checks a Prometheus text exposition: every sample
// follows the one # TYPE line of its family (a histogram's samples are
// its _bucket, _sum and _count), and every counter's name ends in
// _total. It returns the sorted series, name and labels without value.
func checkExposition(t *testing.T, phase, text string) []string {
	t.Helper()
	types := map[string]string{}
	var family string
	var series []string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if _, dup := types[name]; dup {
				t.Errorf("phase %s: family %s has a second # TYPE line", phase, name)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("phase %s: counter %s does not end in _total", phase, name)
			}
			types[name], family = typ, name
			continue
		}
		id := line[:strings.LastIndexByte(line, ' ')]
		name, _, _ := strings.Cut(id, "{")
		own := name == family
		if types[family] == "histogram" {
			own = own || name == family+"_bucket" || name == family+"_sum" || name == family+"_count"
		}
		if !own {
			t.Errorf("phase %s: sample %q is not under its family's # TYPE line (last was %s)", phase, line, family)
		}
		series = append(series, id)
	}
	slices.Sort(series)
	return series
}

// missing lists the entries of a absent from b.
func missing(a, b []string) []string {
	var out []string
	for _, s := range a {
		if !slices.Contains(b, s) {
			out = append(out, s)
		}
	}
	return out
}

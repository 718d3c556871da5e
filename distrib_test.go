// Distributed-costing integration tests: real Greedy/Exhaustive
// searches with what-if costing sharded over in-process HTTP workers
// (httptest servers running the same distrib.Worker that cmd/idxmergew
// serves), asserting the tentpole contract:
//
//   - results are byte-identical at any worker count (0, 1, 4): same
//     final configuration, same float costs bit for bit, same
//     evaluation and cache counters;
//   - every worker failure mode — 5xx, dropped connections, RPC
//     timeouts, malformed responses, coordinator-side injected faults —
//     degrades to local costing without changing any of that;
//   - straggling workers are hedged, not waited for.
package indexmerge

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"indexmerge/internal/core"
	"indexmerge/internal/datagen"
	"indexmerge/internal/distrib"
	"indexmerge/internal/engine"
	"indexmerge/internal/faults"
)

// mergeKey collapses every payload-visible field of a result into one
// comparable string. Float fields compare by bit pattern: the wire
// protocol must round-trip them exactly, not approximately.
func mergeKey(r *MergeResult) string {
	return fmt.Sprintf("init=%s final=%s steps=%v ib=%d fb=%d ce=%d oc=%d cx=%d ic=%016x fc=%016x bound=%016x tmpl=%d th=%d tm=%d pruned=%d deg=%v",
		r.Initial.Signature(), r.Final.Signature(), r.Steps,
		r.InitialBytes, r.FinalBytes,
		r.CostEvaluations, r.OptimizerCalls, r.ConfigsExplored,
		math.Float64bits(r.InitialCost), math.Float64bits(r.FinalCost), math.Float64bits(r.Bound),
		r.Templates, r.CostTableHits, r.CostTableMisses, r.PrunedChecks, r.Degraded)
}

// startWorkerPool spins n in-process workers over the frozen
// snapshot's database and returns a pool over their URLs. wrap, when non-nil,
// decorates every worker's handler (failure injection).
func startWorkerPool(t *testing.T, snap *engine.Snapshot, n int, wrap func(http.Handler) http.Handler, opts distrib.Options) *distrib.Pool {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		h := http.Handler(distrib.NewWorker(snap.DB()).Handler())
		if wrap != nil {
			h = wrap(h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return distrib.NewPool(urls, opts)
}

// distribMerge runs one merge on a fresh Merger (private cost caches,
// so remote batches actually happen) with the given binding.
func distribMerge(t *testing.T, db *Database, w *Workload, defs []IndexDef, opts MergeOptions, b *WorkerBinding) *MergeResult {
	t.Helper()
	m, err := NewMerger(db, w)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = b
	res, err := m.MergeDefsContext(context.Background(), defs, opts)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return res
}

func TestDistributedMergeByteIdentical(t *testing.T) {
	db, w, _, defs := mergerFixture(t)
	snap := db.Snapshot()
	// Greedy over the full candidate set runs ~150 costing waves (each
	// one a batched RPC); exhaustive search bounds out after the first
	// wave on this fixture, which still pins down the baseline path.
	cases := []struct {
		name string
		defs []IndexDef
		opts MergeOptions
	}{
		{"greedy-opt", defs, MergeOptions{CostConstraint: 0.10}},
		{"greedy-compressed", defs, MergeOptions{CostConstraint: 0.10, CostModel: CompressedOptimizerCost}},
		{"exhaustive-opt", defs[:5], MergeOptions{CostConstraint: 0.10, Search: ExhaustiveSearch}},
		{"exhaustive-compressed", defs[:5], MergeOptions{CostConstraint: 0.10, Search: ExhaustiveSearch, CostModel: CompressedOptimizerCost}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			local := distribMerge(t, db, w, tc.defs, tc.opts, nil)
			if local.RemoteBatches != 0 || local.RemoteItems != 0 {
				t.Fatalf("local run reports remote activity: %d batches, %d items",
					local.RemoteBatches, local.RemoteItems)
			}
			want := mergeKey(local)
			for _, workers := range []int{1, 4} {
				pool := startWorkerPool(t, snap, workers, nil, distrib.Options{})
				b, err := pool.Bind(context.Background(), "t", db.Fingerprint(), w)
				if err != nil {
					t.Fatalf("bind %d workers: %v", workers, err)
				}
				res := distribMerge(t, db, w, tc.defs, tc.opts, b)
				if got := mergeKey(res); got != want {
					t.Errorf("%d workers diverged from local run:\nlocal  %s\nremote %s", workers, want, got)
				}
				if res.RemoteBatches == 0 || res.RemoteItems == 0 {
					t.Errorf("%d workers: no remote costing happened (batches=%d items=%d)",
						workers, res.RemoteBatches, res.RemoteItems)
				}
				if res.RemoteFallbacks != 0 {
					t.Errorf("%d workers: unexpected fallbacks: %d", workers, res.RemoteFallbacks)
				}
				st := pool.PoolStats()
				if st.Items == 0 || st.RPCErrors != 0 {
					t.Errorf("%d workers: pool stats %+v", workers, st)
				}
			}
		})
	}
}

// failFirstN decorates a handler to fail its first n /v1/cost requests
// in mode: "500" answers an error status, "drop" severs the TCP
// connection mid-request, "short" answers a well-formed response with
// too few costs, "garbage" answers non-JSON bytes, "slow" stalls
// longer than the pool's RPC timeout.
func failFirstN(n int64, mode string) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		var seen atomic.Int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/cost" || seen.Add(1) > n {
				next.ServeHTTP(w, r)
				return
			}
			switch mode {
			case "500":
				http.Error(w, "injected worker failure", http.StatusInternalServerError)
			case "drop":
				conn, _, err := http.NewResponseController(w).Hijack()
				if err == nil {
					conn.Close()
				}
			case "short":
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, `{"costs":[1]}`)
			case "garbage":
				fmt.Fprint(w, "not json at all")
			case "slow":
				time.Sleep(250 * time.Millisecond)
				next.ServeHTTP(w, r)
			}
		})
	}
}

func TestDistributedMergeWorkerFailuresAreInvisible(t *testing.T) {
	db, w, _, defs := mergerFixture(t)
	snap := db.Snapshot()

	for _, model := range []struct {
		name string
		opts MergeOptions
	}{
		{"opt", MergeOptions{CostConstraint: 0.10}},
		{"compressed", MergeOptions{CostConstraint: 0.10, CostModel: CompressedOptimizerCost}},
	} {
		t.Run(model.name, func(t *testing.T) {
			want := mergeKey(distribMerge(t, db, w, defs, model.opts, nil))
			// A near-zero cooldown lets benched workers rejoin mid-search
			// (compressed runs finish in ~10ms), so the run exercises
			// fail → all-local → recover → remote again.
			popts := distrib.Options{Cooldown: time.Millisecond}
			for _, mode := range []string{"500", "drop", "short", "garbage"} {
				t.Run(mode, func(t *testing.T) {
					pool := startWorkerPool(t, snap, 2, failFirstN(2, mode), popts)
					b, err := pool.Bind(context.Background(), "t", db.Fingerprint(), w)
					if err != nil {
						t.Fatalf("bind: %v", err)
					}
					res := distribMerge(t, db, w, defs, model.opts, b)
					if got := mergeKey(res); got != want {
						t.Errorf("result changed under %s failures:\nwant %s\ngot  %s", mode, want, got)
					}
					if res.RemoteFallbacks == 0 {
						t.Errorf("%s: expected local fallbacks, got none (batches=%d)", mode, res.RemoteBatches)
					}
					if res.RemoteBatches == 0 {
						t.Errorf("%s: expected remote costing after recovery, got none (fallbacks=%d)", mode, res.RemoteFallbacks)
					}
				})
			}
		})
	}
}

// TestDistributedMergeRemoteInstallPanic: a panic while a remotely
// computed cost is installed in the store happens on one of the search's
// wave goroutines, where nothing above a constraint check can recover
// it. It must fail that check — and the merge, with a typed error that
// carries the stack — not the process; with Resilience it is retried and
// leaves no trace in the result.
func TestDistributedMergeRemoteInstallPanic(t *testing.T) {
	db, w, _, defs := mergerFixture(t)
	snap := db.Snapshot()
	defer faults.Reset()
	for _, model := range []struct {
		name string
		kind CostModelKind
	}{{"opt", OptimizerCost}, {"compressed", CompressedOptimizerCost}} {
		t.Run(model.name, func(t *testing.T) {
			opts := MergeOptions{CostConstraint: 0.10, CostModel: model.kind, Parallelism: 4}
			pool := startWorkerPool(t, snap, 2, nil, distrib.Options{})
			b, err := pool.Bind(context.Background(), "t", db.Fingerprint(), w)
			if err != nil {
				t.Fatalf("bind: %v", err)
			}
			faults.Reset()
			want := distribMerge(t, db, w, defs, opts, b)
			if want.RemoteBatches == 0 {
				t.Fatal("the fault-free run costed nothing remotely")
			}
			// Which of a wave's four checks makes the 61st install is a race,
			// and a panicking candidate ranked behind an accepted one is
			// discarded with its verdict: every install from there on
			// panics, so that the next consumed verdict carries one.
			panics := faults.Rule{ID: "install", Point: faults.CostCacheDo, Mode: faults.ModePanic, After: 60}

			faults.Install(panics)
			m, err := NewMerger(db, w)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = b
			_, err = m.MergeDefsContext(context.Background(), defs, opts)
			var pe *core.PanicError
			if !errors.As(err, &pe) || len(pe.Stack) == 0 {
				t.Fatalf("merge under an install panic: err = %v, want a *core.PanicError with a stack", err)
			}
			// Nothing of the failed run is left behind.
			faults.Reset()
			assertSameSearch(t, want, distribMerge(t, db, w, defs, opts, b))

			// One panic, retried: whichever check it lands on.
			panics.Count, panics.Transient = 1, true
			faults.Install(panics)
			opts.Resilience = &ResilienceOptions{Backoff: time.Microsecond}
			got := distribMerge(t, db, w, defs, opts, b)
			assertSameSearch(t, want, got)
			if fmt.Sprint(want.Steps) != fmt.Sprint(got.Steps) || got.Degraded {
				t.Errorf("steps diverged or the result is degraded (%v):\nwant %v\ngot  %v", got.Degraded, want.Steps, got.Steps)
			}
			if got.PanicsRecovered != 1 {
				t.Errorf("PanicsRecovered = %d, want 1", got.PanicsRecovered)
			}
		})
	}
}

func TestDistributedMergeRPCTimeout(t *testing.T) {
	db, w, _, defs := mergerFixture(t)
	snap := db.Snapshot()
	// The looser constraint keeps the wave count modest (~25): only the
	// first wave pays the RPC timeout — it benches both workers for the
	// rest of the run (hour-long cooldown), so later waves fall back
	// instantly on ErrNoWorkers.
	opts := MergeOptions{CostConstraint: 0.50}
	want := mergeKey(distribMerge(t, db, w, defs, opts, nil))

	// Every RPC times out (50ms budget vs 250ms stall, hedging off):
	// the entire search must complete through local fallback.
	pool := startWorkerPool(t, snap, 2, failFirstN(1<<30, "slow"),
		distrib.Options{Timeout: 50 * time.Millisecond, HedgeAfter: -1, Cooldown: time.Hour})
	b, err := pool.Bind(context.Background(), "t", db.Fingerprint(), w)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	res := distribMerge(t, db, w, defs, opts, b)
	if got := mergeKey(res); got != want {
		t.Errorf("result changed under RPC timeouts:\nwant %s\ngot  %s", want, got)
	}
	if res.RemoteFallbacks == 0 {
		t.Error("expected every batch to fall back locally")
	}
	if res.RemoteBatches != 0 {
		t.Errorf("no batch should have succeeded remotely, got %d", res.RemoteBatches)
	}
}

func TestDistributedMergeInjectedRPCFaults(t *testing.T) {
	db, w, _, defs := mergerFixture(t)
	snap := db.Snapshot()
	opts := MergeOptions{CostConstraint: 0.10}
	want := mergeKey(distribMerge(t, db, w, defs, opts, nil))

	// Coordinator-side chaos: the distrib.rpc injection point fires in
	// Pool.scatter before any dispatch, failing whole batches windowed
	// across the search.
	faults.Install(
		faults.Rule{ID: "rpc-early", Point: faults.DistribRPC, Mode: faults.ModeError, After: 1, Count: 2},
		faults.Rule{ID: "rpc-late", Point: faults.DistribRPC, Mode: faults.ModeError, After: 8, Count: 3},
	)
	defer faults.Reset()

	pool := startWorkerPool(t, snap, 2, nil, distrib.Options{})
	b, err := pool.Bind(context.Background(), "t", db.Fingerprint(), w)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	res := distribMerge(t, db, w, defs, opts, b)
	if got := mergeKey(res); got != want {
		t.Errorf("result changed under injected RPC faults:\nwant %s\ngot  %s", want, got)
	}
	if res.RemoteFallbacks == 0 {
		t.Error("expected injected faults to force local fallbacks")
	}
	if res.RemoteBatches == 0 {
		t.Error("expected batches outside the fault windows to run remotely")
	}
}

func TestDistributedMergeHedgesStragglers(t *testing.T) {
	db, w, _, defs := mergerFixture(t)
	snap := db.Snapshot()
	opts := MergeOptions{CostConstraint: 0.50}
	want := mergeKey(distribMerge(t, db, w, defs, opts, nil))

	// Worker 0 stalls its first five cost requests; worker 1 is
	// healthy. With a short hedge delay the pool re-dispatches the
	// straggling chunks to the healthy worker instead of waiting out
	// the stall — the slow answers arrive late and are discarded.
	var workerIdx, slowCalls atomic.Int64
	slowFirst := func(next http.Handler) http.Handler {
		if workerIdx.Add(1) > 1 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cost" && slowCalls.Add(1) <= 5 {
				time.Sleep(150 * time.Millisecond)
			}
			next.ServeHTTP(w, r)
		})
	}
	pool := startWorkerPool(t, snap, 2, slowFirst, distrib.Options{HedgeAfter: 10 * time.Millisecond})
	b, err := pool.Bind(context.Background(), "t", db.Fingerprint(), w)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	res := distribMerge(t, db, w, defs, opts, b)
	if got := mergeKey(res); got != want {
		t.Errorf("result changed under hedging:\nwant %s\ngot  %s", want, got)
	}
	if st := pool.PoolStats(); st.Hedges == 0 {
		t.Errorf("expected straggler hedges, pool stats %+v", st)
	}
}

func TestWorkerPoolRejectsWrongDatabase(t *testing.T) {
	db, w, _, _ := mergerFixture(t)
	// A worker over a different database must be benched at fingerprint
	// verification, never costed against.
	wrongDB, err := datagen.BuildNamed("synthetic1", 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(distrib.NewWorker(wrongDB.Snapshot().DB()).Handler())
	defer srv.Close()
	pool := distrib.NewPool([]string{srv.URL}, distrib.Options{})
	if _, err := pool.Bind(context.Background(), "t", db.Fingerprint(), w); err == nil {
		t.Fatal("bind accepted a worker with a mismatched database fingerprint")
	}
	if st := pool.PoolStats(); st.Healthy != 0 {
		t.Errorf("mismatched worker not benched: %+v", st)
	}
}

func TestWorkerPoolRejectsOldProtocol(t *testing.T) {
	db, w, _, defs := mergerFixture(t)
	opts := MergeOptions{CostConstraint: 0.50}
	want := mergeKey(distribMerge(t, db, w, defs, opts, nil))
	// One worker of an earlier release beside a current one: it would
	// misread the one-arm cost request, so it is benched for good at
	// /v1/info and never asked; the run is unchanged.
	old := http.Handler(distrib.NewWorker(db.Snapshot().DB()).Handler())
	oldSrv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/info" {
			fmt.Fprintf(rw, `{"protocol":1,"fingerprint":%q}`, engine.FingerprintString(db.Fingerprint()))
			return
		}
		t.Errorf("a worker speaking protocol 1 was sent %s", r.URL.Path)
		old.ServeHTTP(rw, r)
	}))
	defer oldSrv.Close()

	alone := distrib.NewPool([]string{oldSrv.URL}, distrib.Options{})
	if _, err := alone.Bind(context.Background(), "t", db.Fingerprint(), w); err == nil || !strings.Contains(err.Error(), "speaks protocol 1") {
		t.Fatalf("bind to a protocol-1 worker alone: err = %v, want the protocol error", err)
	}
	if st := alone.PoolStats(); st.Healthy != 0 {
		t.Errorf("protocol-1 worker not benched: %+v", st)
	}

	cur := httptest.NewServer(distrib.NewWorker(db.Snapshot().DB()).Handler())
	defer cur.Close()
	pool := distrib.NewPool([]string{oldSrv.URL, cur.URL}, distrib.Options{})
	b, err := pool.Bind(context.Background(), "t", db.Fingerprint(), w)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	res := distribMerge(t, db, w, defs, opts, b)
	if got := mergeKey(res); got != want {
		t.Errorf("result changed beside a benched worker:\nwant %s\ngot  %s", want, got)
	}
	if st := pool.PoolStats(); st.Healthy != 1 || res.RemoteBatches == 0 {
		t.Errorf("pool stats %+v, %d remote batches: want the current worker alone, in use", st, res.RemoteBatches)
	}
}

func TestWorkerPoolBindUnreachable(t *testing.T) {
	db, w, _, _ := mergerFixture(t)
	// A closed port: Bind must fail (the CLI surfaces this loudly).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	pool := distrib.NewPool([]string{"http://" + addr}, distrib.Options{Timeout: time.Second})
	if _, err := pool.Bind(context.Background(), "t", db.Fingerprint(), w); err == nil {
		t.Fatal("bind succeeded against an unreachable worker")
	}
}

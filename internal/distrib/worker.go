package distrib

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"indexmerge/internal/catalog"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// workerMaxBodyBytes caps worker request bodies. Registration ships
// the full serialized workload (10k statements ≈ 1 MB), so the cap is
// far above idxmerged's public-API 1 MiB.
const workerMaxBodyBytes = 64 << 20

// Worker serves batched what-if costing over one immutable database.
// It is stateless beyond its workload registry: every cost request
// names a registered workload and carries the full configuration to
// cost under, so any worker in a pool can serve any batch. Costing
// runs the exact code the coordinator would run locally — CostPrepared
// over identically-built statistics — which is what makes remote costs
// bit-identical to local ones.
type Worker struct {
	db  *engine.Database
	opt *optimizer.Optimizer
	fp  uint64
	mux *http.ServeMux

	mu        sync.RWMutex
	workloads map[string]*workerWorkload

	costRequests atomic.Int64
	itemsCosted  atomic.Int64
}

// workerWorkload is one registered workload: the parsed queries and
// their prepared descriptors.
type workerWorkload struct {
	text string
	w    *sql.Workload
	pw   *optimizer.PreparedWorkload
}

// NewWorker builds a worker over db, which must be analyzed and is
// treated as immutable from here on (freeze it with db.Snapshot()).
func NewWorker(db *engine.Database) *Worker {
	wk := &Worker{
		db:        db,
		opt:       optimizer.New(db),
		fp:        db.Fingerprint(),
		workloads: make(map[string]*workerWorkload),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", wk.handleHealthz)
	mux.HandleFunc("/v1/info", wk.handleInfo)
	mux.HandleFunc("/v1/workloads", wk.handleRegister)
	mux.HandleFunc("/v1/cost", wk.handleCost)
	mux.HandleFunc("/metrics", wk.handleMetrics)
	wk.mux = mux
	return wk
}

// Handler returns the worker's HTTP handler.
func (wk *Worker) Handler() http.Handler { return wk.mux }

// Fingerprint returns the worker database's fingerprint.
func (wk *Worker) Fingerprint() uint64 { return wk.fp }

func workerJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func workerErr(w http.ResponseWriter, code int, format string, args ...any) {
	workerJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (wk *Worker) handleHealthz(w http.ResponseWriter, r *http.Request) {
	workerJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (wk *Worker) handleInfo(w http.ResponseWriter, r *http.Request) {
	wk.mu.RLock()
	n := len(wk.workloads)
	wk.mu.RUnlock()
	workerJSON(w, http.StatusOK, InfoResponse{
		Protocol:     protocolVersion,
		Fingerprint:  engine.FingerprintString(wk.fp),
		StatsVersion: wk.db.StatsVersion(),
		Tables:       len(wk.db.Schema().Tables()),
		DataBytes:    wk.db.DataBytes(),
		GoVersion:    runtime.Version(),
		Workloads:    n,
	})
}

func (wk *Worker) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		workerErr(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, workerMaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		workerErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// handleRegister parses and prepares a workload once.
// Idempotent for identical text; a name collision with different text
// is a conflict (bindings namespace names per session, so collisions
// mean a coordinator bug).
func (wk *Worker) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterWorkloadRequest
	if !wk.decode(w, r, &req) {
		return
	}
	if req.Name == "" || req.SQL == "" {
		workerErr(w, http.StatusBadRequest, "name and sql are required")
		return
	}
	wk.mu.RLock()
	existing := wk.workloads[req.Name]
	wk.mu.RUnlock()
	if existing != nil && existing.text != req.SQL {
		workerErr(w, http.StatusConflict, "workload %q already registered with different text", req.Name)
		return
	}
	if existing == nil {
		wl, err := sql.ParseWorkload(strings.NewReader(req.SQL), wk.db.Schema())
		if err != nil {
			workerErr(w, http.StatusBadRequest, "parse workload: %v", err)
			return
		}
		pw, err := optimizer.PrepareWorkload(wl, wk.db)
		if err != nil {
			workerErr(w, http.StatusInternalServerError, "prepare workload: %v", err)
			return
		}
		ww := &workerWorkload{text: req.SQL, w: wl, pw: pw}
		wk.mu.Lock()
		// Recheck under the write lock: a concurrent identical
		// registration may have won; keep whichever landed first.
		if cur := wk.workloads[req.Name]; cur == nil {
			wk.workloads[req.Name] = ww
		}
		existing = wk.workloads[req.Name]
		wk.mu.Unlock()
	}
	workerJSON(w, http.StatusOK, RegisterWorkloadResponse{Name: req.Name, Queries: existing.w.Len()})
}

// handleCost prices one batch. Items evaluate serially — a worker is
// one what-if stream; run more workers for more throughput — and any
// failed item fails the whole batch (the coordinator falls back to
// local costing, so partial results are useless to it).
func (wk *Worker) handleCost(w http.ResponseWriter, r *http.Request) {
	var req CostRequest
	if !wk.decode(w, r, &req) {
		return
	}
	wk.mu.RLock()
	ww := wk.workloads[req.Workload]
	wk.mu.RUnlock()
	if ww == nil {
		workerErr(w, http.StatusNotFound, "workload %q not registered", req.Workload)
		return
	}
	wk.costRequests.Add(1)
	resp := CostResponse{Costs: make([]float64, len(req.Items))}
	for i, it := range req.Items {
		defs, err := wk.resolveDefs(it.Indexes)
		if err != nil {
			workerErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		for _, mi := range it.Members {
			if mi < 0 || mi >= len(ww.pw.Queries) {
				workerErr(w, http.StatusBadRequest, "query index %d out of range", mi)
				return
			}
		}
		sum, _, err := wk.opt.CostPreparedSum(r.Context(), ww.pw, it.Members, nil, optimizer.Configuration(defs))
		if err != nil {
			workerErr(w, http.StatusInternalServerError, "cost item %d: %v", i, err)
			return
		}
		resp.Costs[i] = sum
	}
	wk.itemsCosted.Add(int64(len(req.Items)))
	workerJSON(w, http.StatusOK, resp)
}

func (wk *Worker) resolveDefs(wire []IndexDefWire) ([]catalog.IndexDef, error) {
	defs := make([]catalog.IndexDef, len(wire))
	for i, d := range wire {
		def, err := catalog.NewIndexDef(wk.db.Schema(), d.Name, d.Table, d.Columns)
		if err != nil {
			return nil, fmt.Errorf("resolve index %q: %w", d.Name, err)
		}
		defs[i] = def
	}
	return defs, nil
}

func (wk *Worker) handleMetrics(w http.ResponseWriter, r *http.Request) {
	wk.mu.RLock()
	n := len(wk.workloads)
	wk.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "idxmergew_workloads %d\n", n)
	fmt.Fprintf(w, "idxmergew_cost_requests_total %d\n", wk.costRequests.Load())
	fmt.Fprintf(w, "idxmergew_items_costed_total %d\n", wk.itemsCosted.Load())
}

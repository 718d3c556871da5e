package distrib

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/wscale"
)

// workerFixture builds a frozen TPC-D database, its workload and a
// worker over it, plus the canonical workload text a coordinator
// would register.
func workerFixture(t *testing.T) (*engine.Database, *sql.Workload, *Worker, string) {
	t.Helper()
	db, err := datagen.BuildTPCD(datagen.ScaledTPCD(0.12), 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := datagen.TPCDWorkload(db.Schema())
	if err != nil {
		t.Fatal(err)
	}
	db.Snapshot()
	var sb strings.Builder
	if err := sql.WriteWorkload(&sb, w); err != nil {
		t.Fatal(err)
	}
	return db, w, NewWorker(db), sb.String()
}

// do runs one request against the worker handler and decodes the JSON
// response into out (when non-nil), returning the status code.
func do(t *testing.T, wk *Worker, method, path string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	wk.Handler().ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func TestWorkerInfo(t *testing.T) {
	db, _, wk, _ := workerFixture(t)
	var info InfoResponse
	if code := do(t, wk, http.MethodGet, "/v1/info", nil, &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if info.Protocol != protocolVersion {
		t.Errorf("protocol = %d, want %d", info.Protocol, protocolVersion)
	}
	if want := engine.FingerprintString(db.Fingerprint()); info.Fingerprint != want {
		t.Errorf("fingerprint = %s, want %s (fork must not change it)", info.Fingerprint, want)
	}
	if info.Workloads != 0 || info.Tables == 0 || info.DataBytes == 0 {
		t.Errorf("unexpected info: %+v", info)
	}
}

func TestWorkerRegisterIdempotentAndConflict(t *testing.T) {
	_, w, wk, text := workerFixture(t)
	req := RegisterWorkloadRequest{Name: "s/w", SQL: text}
	var first, second RegisterWorkloadResponse
	if code := do(t, wk, http.MethodPost, "/v1/workloads", req, &first); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	if first.Queries != w.Len() {
		t.Errorf("echoed %d queries, workload has %d", first.Queries, w.Len())
	}
	// Same name, same text: idempotent.
	if code := do(t, wk, http.MethodPost, "/v1/workloads", req, &second); code != http.StatusOK {
		t.Fatalf("re-register: status %d", code)
	}
	if first != second {
		t.Errorf("re-registration changed the echo: %+v vs %+v", first, second)
	}
	// Same name, different text: a coordinator bug, refused.
	conflict := RegisterWorkloadRequest{Name: "s/w", SQL: "1|SELECT l_orderkey FROM lineitem WHERE l_orderkey = 1\n"}
	if code := do(t, wk, http.MethodPost, "/v1/workloads", conflict, nil); code != http.StatusConflict {
		t.Errorf("conflicting re-registration: status %d, want 409", code)
	}
	if code := do(t, wk, http.MethodPost, "/v1/workloads", RegisterWorkloadRequest{}, nil); code != http.StatusBadRequest {
		t.Error("empty registration accepted")
	}
	if code := do(t, wk, http.MethodGet, "/v1/workloads", nil, nil); code != http.StatusMethodNotAllowed {
		t.Error("GET registration accepted")
	}
}

// TestWorkerCostMatchesLocal is the wire-determinism core: costs served
// over HTTP must be bit-identical to CostPrepared run locally on the
// same frozen database.
func TestWorkerCostMatchesLocal(t *testing.T) {
	db, w, wk, text := workerFixture(t)
	if code := do(t, wk, http.MethodPost, "/v1/workloads", RegisterWorkloadRequest{Name: "w", SQL: text}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}

	// Local twin: same database, same deterministic preparation.
	opt := optimizer.New(db)
	pw, err := optimizer.PrepareWorkload(w, db)
	if err != nil {
		t.Fatal(err)
	}
	comp := wscale.Compress(w)

	cfg := []IndexDefWire{
		{Name: "ix_l", Table: "lineitem", Columns: []string{"l_orderkey"}},
		{Name: "ix_o", Table: "orders", Columns: []string{"o_orderkey", "o_orderdate"}},
	}
	// Every query as a cell of its own, then two templates' members
	// each under a configuration of its own, then items with no
	// members, which cost 0.
	var items []CostItemWire
	for qi := range w.Queries {
		items = append(items, CostItemWire{Members: []int{qi}, Indexes: cfg})
	}
	items = append(items,
		CostItemWire{Members: comp.Templates[0].Members, Indexes: cfg},
		CostItemWire{Members: comp.Templates[1].Members, Indexes: nil},
		CostItemWire{Members: nil, Indexes: cfg},
		CostItemWire{Members: []int{}, Indexes: cfg})
	var resp CostResponse
	if code := do(t, wk, http.MethodPost, "/v1/cost", CostRequest{Workload: "w", Items: items}, &resp); code != http.StatusOK {
		t.Fatalf("cost: status %d", code)
	}
	if len(resp.Costs) != len(items) {
		t.Fatalf("%d costs for %d items", len(resp.Costs), len(items))
	}
	for i, it := range items {
		defs, err := resolveLocal(db, it.Indexes)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, mi := range it.Members {
			c, err := opt.CostPrepared(pw.Queries[mi], optimizer.Configuration(defs))
			if err != nil {
				t.Fatal(err)
			}
			want += c * w.Queries[mi].Freq
		}
		if resp.Costs[i] != want {
			t.Errorf("item %d: remote %v != local %v", i, resp.Costs[i], want)
		}
	}
}

// resolveLocal mirrors the worker's wire-def resolution on a local
// database.
func resolveLocal(db *engine.Database, wire []IndexDefWire) ([]catalog.IndexDef, error) {
	defs := make([]catalog.IndexDef, len(wire))
	for i, d := range wire {
		def, err := catalog.NewIndexDef(db.Schema(), d.Name, d.Table, d.Columns)
		if err != nil {
			return nil, err
		}
		defs[i] = def
	}
	return defs, nil
}

func TestWorkerCostErrors(t *testing.T) {
	_, w, wk, text := workerFixture(t)
	if code := do(t, wk, http.MethodPost, "/v1/workloads", RegisterWorkloadRequest{Name: "w", SQL: text}, nil); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	cases := []struct {
		name string
		req  CostRequest
		want int
	}{
		{"unknown workload", CostRequest{Workload: "nope", Items: []CostItemWire{{Members: []int{0}}}}, http.StatusNotFound},
		{"query out of range", CostRequest{Workload: "w", Items: []CostItemWire{{Members: []int{w.Len()}}}}, http.StatusBadRequest},
		{"negative query", CostRequest{Workload: "w", Items: []CostItemWire{{Members: []int{-1}}}}, http.StatusBadRequest},
		{"one bad member fails the batch", CostRequest{Workload: "w", Items: []CostItemWire{{Members: []int{0}}, {Members: []int{0, 1 << 20}}}}, http.StatusBadRequest},
		{"unknown table", CostRequest{Workload: "w", Items: []CostItemWire{{Members: []int{0},
			Indexes: []IndexDefWire{{Name: "ix", Table: "no_such_table", Columns: []string{"c"}}}}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := do(t, wk, http.MethodPost, "/v1/cost", tc.req, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
	// Malformed body and wrong method.
	req := httptest.NewRequest(http.MethodPost, "/v1/cost", strings.NewReader("not json"))
	rec := httptest.NewRecorder()
	wk.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", rec.Code)
	}
	if code := do(t, wk, http.MethodGet, "/v1/cost", nil, nil); code != http.StatusMethodNotAllowed {
		t.Error("GET cost accepted")
	}
}

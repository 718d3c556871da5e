// Package distrib shards what-if costing over a pool of stateless
// worker processes (ROADMAP item 10, the paper's §3.4.2 observation
// that optimizer invocations dominate merge-search running time made
// horizontal). A worker (cmd/idxmergew) loads the same database the
// coordinator uses — a snapshot file or a deterministic named build —
// prepares registered workloads once, and serves batched cost RPCs
// over HTTP. The coordinator-side Pool scatters each batch of missed
// cost cells (a unit's members under the definitions relevant to them)
// across healthy workers, hedges stragglers, and reassembles results
// in request order; the checker installs them through the exact same
// store/counter path as local evaluation, so search results are
// byte-identical at any worker count and any failure falls back to
// local costing.
package distrib

import "indexmerge/internal/catalog"

// protocolVersion guards coordinator/worker wire compatibility: 2 is
// the one-arm cost request (items of member positions); a version-1
// worker would misread it, and is benched instead.
const protocolVersion = 2

// InfoResponse describes a worker (GET /v1/info). Fingerprint is
// engine.FingerprintString of the worker's database; a coordinator
// must not dispatch to a worker whose fingerprint differs from its
// own database's.
type InfoResponse struct {
	Protocol     int    `json:"protocol"`
	Fingerprint  string `json:"fingerprint"`
	StatsVersion uint64 `json:"stats_version"`
	Tables       int    `json:"tables"`
	DataBytes    int64  `json:"data_bytes"`
	GoVersion    string `json:"go_version"`
	Workloads    int    `json:"workloads"`
}

// RegisterWorkloadRequest registers a workload by its serialized text
// (sql.WriteWorkload format: "freq|SQL" lines) under a name (POST
// /v1/workloads). Registration is idempotent for identical text;
// re-registering a name with different text is a conflict.
type RegisterWorkloadRequest struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

// RegisterWorkloadResponse echoes what the worker parsed. Queries lets
// the coordinator verify both sides agree on workload positions before
// any costing.
type RegisterWorkloadResponse struct {
	Name    string `json:"name"`
	Queries int    `json:"queries"`
}

// IndexDefWire is a hypothetical index definition on the wire. Order
// matters and is preserved: the worker costs against the defs exactly
// as sent, matching the local evaluation it replaces.
type IndexDefWire struct {
	Name    string   `json:"name"`
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
}

// CostItemWire is one cell to cost: the exact sum Σ Freq ×
// CostPrepared over the member positions, in member order, under the
// item's own configuration.
type CostItemWire struct {
	Members []int          `json:"members"`
	Indexes []IndexDefWire `json:"indexes"`
}

// CostRequest is one batched costing call (POST /v1/cost) against a
// registered workload.
type CostRequest struct {
	Workload string         `json:"workload"`
	Items    []CostItemWire `json:"items"`
}

// CostResponse carries costs positionally matching the request's items.
// float64 survives JSON exactly (encoding/json emits the shortest
// representation that parses back to the same bits), so remote costs
// are bit-identical to locally computed ones.
type CostResponse struct {
	Costs []float64 `json:"costs"`
}

// ErrorResponse is the worker's error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}

func toWire(defs []catalog.IndexDef) []IndexDefWire {
	out := make([]IndexDefWire, len(defs))
	for i, d := range defs {
		out[i] = IndexDefWire{Name: d.Name, Table: d.Table, Columns: d.Columns}
	}
	return out
}

package wscale

import "indexmerge/internal/core"

// Checker is the cost constraint (Cost(W, C') ≤ U) over a compressed
// workload: core's one optimizer-backed checker, pricing template units
// instead of single queries. What the units add is in the data — a
// template's members are costed and stored together, and a cell that
// takes more than one optimizer call to fill keeps the lower bounds that
// fast-reject hopeless candidates.
type Checker = core.OptimizerChecker

// NewChecker builds a checker over p's template units with U =
// baseCost × (1 + slackPct). baseCost should be p.WorkloadCostContext of
// the initial configuration; slackPct is the paper's cost-constraint
// percentage (e.g. 0.10).
func NewChecker(p *Prepared, baseCost, slackPct float64) *Checker {
	return p.Pricer.NewChecker(baseCost, slackPct)
}

package main

import "fmt"

// sizes fixes the work of one round of every workload. fullSizes is
// the benchmark's definition and must be the same on both sides of any
// comparison; shortSizes only lets the tests run every code path fast.
type sizes struct {
	Batch  map[string]batchSpec
	Daemon map[string]daemonSpec
	// KernelLoops sizes the calibration kernel: 60,000 take 10 ms, the
	// kernelNominal, on the machine the benchmark was written on.
	KernelLoops int
}

var fullSizes = sizes{
	KernelLoops: 60000,
	Batch: map[string]batchSpec{
		// A query log: few shapes, many constant-varied repeats.
		"log-compressed": {
			DB: "synthetic2", Scale: 0.5, Templates: 60, Disjunctions: true, Statements: 20000, Variants: 32,
			InitialN: 40, Constraint: 0.10, Compressed: true, Operations: 2,
			CostRequests: 32, CostSubsets: 64, SubsetSize: 10,
		},
		// Every query its own shape: compression buys nothing.
		"distinct-opt": {
			DB: "tpcd", Scale: 3.0, Templates: 300, Statements: 300,
			InitialN: 40, Constraint: 0.10, Operations: 4,
			CostRequests: 100, CostSubsets: 64, SubsetSize: 10,
		},
	},
	Daemon: map[string]daemonSpec{
		"daemon-jobs": {
			DB: "synthetic1", Scale: 1.0, Templates: 60, Disjunctions: true, Cycles: 6, Constraint: 0.10,
			Statements: 500, InitialN: 10,
			CostRequests: 50, CostSubsets: 64, SubsetSize: 10, RefIndexes: 40,
		},
		"continuous-drift": {
			DB: "synthetic2", Scale: 0.5, Templates: 60, Disjunctions: true, Cycles: 2, Constraint: 0.10,
			Batches: 6, BatchStatements: 500, ActiveTemplates: 40, Slide: 4,
			CostRequests: 50, CostSubsets: 64, SubsetSize: 10, RefIndexes: 40,
		},
	},
}

// workload builds the named workload at these sizes.
func (s sizes) workload(name string, seed int64, tr *tracer, scratch string) (workload, error) {
	if spec, ok := s.Batch[name]; ok {
		return &batchWorkload{spec: spec, tr: tr}, nil
	}
	if spec, ok := s.Daemon[name]; ok {
		return newDaemonWorkload(spec, seed, tr, scratch)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

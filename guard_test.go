package indexmerge

import (
	"bufio"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// guardFile is this file: it spells every guarded name.
const guardFile = "guard_test.go"

// nameGuard is the name of a code path that was deleted or folded into
// one, with the files it covers. A match is a regression.
type nameGuard struct {
	why string
	re  *regexp.Regexp
	in  func(path string) bool
}

// statementDoor keeps the costing packages on descriptors prepared
// once: none calls Optimize, the one entry that prepares its statement
// per call, so no costing re-prepares a query.
var statementDoor = nameGuard{
	why: "costing is handed descriptors prepared once",
	re:  regexp.MustCompile(`\.Optimize\(`),
	in:  costingFile,
}

var nameGuards = []nameGuard{
	{
		// Snapshot.Fork is an alias of DB that only the benchmark calls.
		why: "a frozen database is shared, never forked",
		re:  regexp.MustCompile(`\.Fork\(\)`),
		in:  outsideBenchmark,
	},
	{
		// core.Pricer interns each definition in its store and resolves
		// it once; no text-keyed relevance memo or separator-joined key
		// is left beside it, and the store's keys are integer words, not
		// strings built per lookup.
		why: "cost cells are keyed by index IDs",
		re:  regexp.MustCompile(`keySepIndex|optimizer\.Relevance|NewRelevance|GetBytes|appendKey|keySepNS|missKey`),
		in:  everywhere,
	},
	{
		// The searches, the advisor's tuning and the figure drivers each
		// have one entry point, and datagen.BuildNamed is the only
		// named-database builder.
		why: "one entry point per operation",
		re:  regexp.MustCompile(`func Greedy\(|func GreedyWithOptions\(|func Exhaustive\(|func CostMinimal\(|TuneQuery\(|TuneWorkload|TuneTemplates\(|func RunSearchComparison\(|func RunMergePairComparison\(|func BuildDB\(|func buildDatabase\(`),
		in:  outsideBenchmark,
	},
	{
		// A registered workload's form prices every cost model through
		// its template units; the per-query engine is
		// NewOptimizerChecker's own, built inside internal/core.
		why: "one engine per form",
		re:  regexp.MustCompile(`\b(?:QueryPricer|NewQueryPricer|ownsTable|queryChecker)\b`),
		in:  outsideBenchmark,
	},
	{
		// A checker is not named.
		why: "one engine per form",
		re:  regexp.MustCompile(`Description\(\) string`),
		in:  func(path string) bool { return strings.HasPrefix(path, "internal/core/") },
	},
	{
		// A cost cell has one producer, the local sweep of
		// OptimizerChecker.fill; the what-if worker pool is gone.
		why: "one costing path",
		re:  regexp.MustCompile(`internal/distrib|idxmergew|CostWorkers|BatchCostServer|RemoteStats|WorkerPool|FingerprintString`),
		in:  everywhere,
	},
	{
		// In-process costing has one failure policy: every costing runs
		// once behind the panic boundary, and a failed check degrades
		// once. No retry loop, per-attempt deadline, session circuit
		// breaker or retryable fault class is left.
		why: "a failed check degrades once",
		re:  regexp.MustCompile(`\b(?:Breaker|CostBreaker|MaxRetries|AttemptTimeout|NoDegraded|IsTransient|ErrCircuitOpen|CostingError)\b|max_retries|attempt_timeout_ms|no_degraded|idxmerged_breaker_`),
		in:  everywhere,
	},
	{
		// The planner has two doors, CostPreparedSum and
		// OptimizePreparedEach, and three thin forms of them (Optimize,
		// CostPrepared, WorkloadCostPrepared). The entries that prepared
		// per call, the one-query twin of the Showplan pass, the context
		// twin of the workload sum and the prepared-call counter are gone.
		why: "two doors into the planner",
		re:  regexp.MustCompile(`func \(\w+ \*Optimizer\) (?:Cost|WorkloadCost)\(|\bOptimizePrepared\(|WorkloadCostPreparedContext|PreparedCallCount|preparedCalls`),
		in:  everywhere,
	},
	{
		// A plan's index uses are read from the planner's winning
		// choices, by the one walk that feeds both Plan.Uses and the
		// Showplan door; no attribution walks a built plan tree in the
		// product, and the exported seek probe on Plan is gone.
		why: "index uses come from the planner's choices",
		re:  regexp.MustCompile(`\bcollectUses\b|\bUsesIndexForSeek\b`),
		in:  everywhere,
	},
	{
		// Exported functions nothing but their own unit tests called.
		why: "no exported function without a caller",
		re:  regexp.MustCompile(`\b(?:PagesToBytes|SortedColumnSignature|StoredWidth)\b|\bfaults\.Enabled\b|func Enabled\(\)`),
		in:  everywhere,
	},
	{
		// The paper's per-query tuning, Exhaustive search and figure
		// runs are serial: the advisor's candidate fan-out, Exhaustive's
		// speculative sibling waves and the harness's -parallel are gone.
		// Greedy's waves and a check's miss fill keep their knob.
		why: "one serial path where no workload runs two",
		re:  regexp.MustCompile(`Parallelism|"parallel"`),
		in: func(path string) bool {
			return path == "internal/core/exhaustive.go" || strings.HasPrefix(path, "internal/advisor/") ||
				strings.HasPrefix(path, "internal/experiments/") || strings.HasPrefix(path, "cmd/experiments/")
		},
	},
	{
		// A fault rule fires on a count window; there are no seeded
		// probabilistic rules.
		why: "faults fire on count windows only",
		re:  regexp.MustCompile(`\b(?:Prob|rngMu)\b|case "(?:prob|seed)"`),
		in:  func(path string) bool { return strings.HasPrefix(path, "internal/faults/") },
	},
	{
		// /metrics has one series per fact: no family labeled by
		// session, none summing or copying another, and no quota refusal
		// forced by a fault point (a limit of 1 reaches each one).
		why: "one series per fact",
		re:  regexp.MustCompile(`\b(?:SessionGauges|faultShed|QuotaAdmit|QuotaMemory)\b|quota_shed|idxmerged_http_request_seconds|idxmerged_deadline_exceeded_total|\{session=`),
		in:  func(path string) bool { return outsideBenchmark(path) && !strings.HasSuffix(path, "_test.go") },
	},
	{
		// Sessions and jobs are counted where they live, by the registry
		// and the job manager; the quota controller judges those counts
		// and holds only the ingest buckets. No acquire/release pairing,
		// release closure or copy of the counts is left, and refused
		// ingest is counted per request in idxmerged_shed_total.
		why: "tenant accounting has one owner",
		re:  regexp.MustCompile(`\b(?:AcquireSession|ReleaseSession|AcquireJob|ReleaseJob|SubmitOpts|RecordIngestShed|UsageAll|UsageFor)\b|idxmerged_tenant_ingest_shed_total`),
		in:  everywhere,
	},
	statementDoor,
}

func everywhere(string) bool { return true }

func outsideBenchmark(path string) bool { return !strings.HasPrefix(path, "benchmark/") }

// costingFile reports whether path is product code of a package that
// prices configurations: the facade, the search, the compressed
// workload, the advisor and the service.
func costingFile(path string) bool {
	if strings.HasSuffix(path, "_test.go") {
		return false
	}
	if path == "indexmerge.go" {
		return true
	}
	for _, dir := range []string{"internal/core/", "internal/wscale/", "internal/advisor/", "internal/server/"} {
		if strings.HasPrefix(path, dir) {
			return true
		}
	}
	return false
}

// TestDeletedNamesStayDeleted: no tracked Go file, other than this one,
// spells a guarded name in the files its guard covers.
func TestDeletedNamesStayDeleted(t *testing.T) {
	checkGuards(t, nameGuards...)
}

// checkGuards fails t for every line of a tracked Go file, other than
// this one, that a guard covers and matches.
func checkGuards(t *testing.T, guards ...nameGuard) {
	t.Helper()
	files := goFiles(t)
	if len(files) < 100 {
		t.Fatalf("found %d Go files; the guards would check almost nothing", len(files))
	}
	for _, path := range files {
		if path == guardFile {
			continue
		}
		f, err := os.Open(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue // tracked, but deleted in the working tree
		}
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			for _, g := range guards {
				if g.in(path) && g.re.Match(sc.Bytes()) {
					t.Errorf("%s:%d: %s: %s", path, line, g.why, sc.Text())
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
}

// goFiles lists the module's Go files, slash-separated and relative to
// its root: the tracked ones when git can list them, otherwise every
// one outside hidden directories.
func goFiles(t *testing.T) []string {
	t.Helper()
	if out, err := exec.Command("git", "ls-files", "--", "*.go").Output(); err == nil && len(out) > 0 {
		return strings.Fields(string(out))
	}
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// Command idxmerged is the index-merging advisor service: a
// long-running HTTP JSON API over the same engine cmd/idxmerge drives
// in batch. It manages named sessions (schema + generated data +
// analyzed statistics), registers workloads, answers synchronous
// what-if costing requests, and runs tune/merge searches as
// asynchronous, cancellable jobs on a bounded worker pool, exposing
// Prometheus-style metrics on /metrics.
//
// Usage:
//
//	idxmerged [-addr :7781] [-workers 2] [-queue 8] [-cache 1048576]
//	          [-drain-timeout 30s] [-journal path] [-faults rules]
//	          [-cost-workers http://host:7791,http://host:7792] [-pprof]
//	          [-quota-sessions 0] [-quota-jobs 0] [-quota-ingest-rate 0]
//	          [-quota-ingest-burst 0] [-quota-memory 0] [-memory-budget 0]
//
// SIGINT/SIGTERM drain gracefully: the listener stops, queued and
// running jobs get -drain-timeout to finish, then are canceled.
//
// With -journal, state-changing requests are appended (fsynced) to a
// JSONL journal and replayed on the next start: sessions and
// workloads are rebuilt deterministically and jobs interrupted by a
// crash reappear as failed with an explicit recovery reason. -faults
// installs deterministic fault-injection rules (see internal/faults)
// for chaos testing.
//
// A session created with a "continuous" block is a continuous advisor:
// streaming ingestion on POST /v1/sessions/{name}/ingest, re-tuning on
// demand or every "retune_period_ms", and auto-apply/rollback of
// recommendations behind cost guardrails. The block is the loop's whole
// configuration (zero fields take the built-in defaults); it is
// journaled with the session, so a restart replays the same loop.
//
// The -quota-* flags set per-tenant admission limits (tenants are
// identified by the X-Tenant header or the session creation request's
// tenant field; zero = unlimited): live sessions, queued+running jobs,
// ingest statements per second (token bucket), and byte-accounted
// memory (windows + cost tables). -memory-budget is the GLOBAL
// accounted-memory budget that drives the brownout degradation ladder
// alongside job-queue pressure.
//
// Each registered workload keeps the what-if costs of its jobs, under
// either cost model, in one cost table that lives and is replaced with
// the registration; a continuous session's window keeps one more across
// its re-tunes. -cache bounds each of these tables.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"indexmerge/internal/faults"
	"indexmerge/internal/server"
	"indexmerge/internal/server/quota"
)

func main() {
	addr := flag.String("addr", ":7781", "listen address")
	workers := flag.Int("workers", 2, "job worker pool size (jobs on distinct sessions run in parallel)")
	queue := flag.Int("queue", 8, "pending job queue capacity (submissions beyond it get 429)")
	cacheMax := flag.Int("cache", 1<<20, "bound of each registered workload's and each continuous window's cost table, entries (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight jobs")
	journalPath := flag.String("journal", "", "session/job journal file (empty = no durability)")
	faultRules := flag.String("faults", "", "fault-injection rules, semicolon-separated (chaos testing)")
	costWorkers := flag.String("cost-workers", "", "comma-separated what-if worker base URLs (idxmergew); merge jobs batch costings to the pool, falling back locally on failure")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	quotaSessions := flag.Int("quota-sessions", 0, "per-tenant live session limit (0 = unlimited)")
	quotaJobs := flag.Int("quota-jobs", 0, "per-tenant queued+running job limit (0 = unlimited)")
	quotaIngestRate := flag.Float64("quota-ingest-rate", 0, "per-tenant ingest statements/sec token-bucket rate (0 = unlimited)")
	quotaIngestBurst := flag.Float64("quota-ingest-burst", 0, "per-tenant ingest token-bucket burst (0 = same as rate)")
	quotaMemory := flag.Int64("quota-memory", 0, "per-tenant accounted-memory budget, bytes (0 = unlimited)")
	memoryBudget := flag.Int64("memory-budget", 0, "global accounted-memory budget driving the brownout ladder, bytes (0 = queue pressure only)")
	flag.Parse()

	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if *faultRules != "" {
		rules, err := faults.ParseRules(*faultRules)
		if err != nil {
			log.Error("bad -faults", "error", err)
			os.Exit(2)
		}
		faults.Install(rules...)
		log.Warn("fault injection armed", "rules", len(rules))
	}
	cfg := server.Config{
		Workers:         *workers,
		QueueCap:        *queue,
		CacheMaxEntries: *cacheMax,
		Logger:          log,
		JournalPath:     *journalPath,
		Quota: quota.Limits{
			MaxSessions:  *quotaSessions,
			MaxJobs:      *quotaJobs,
			IngestPerSec: *quotaIngestRate,
			IngestBurst:  *quotaIngestBurst,
			MemoryBytes:  *quotaMemory,
		},
		MemoryBudgetBytes: *memoryBudget,
	}
	if *costWorkers != "" {
		cfg.CostWorkers = strings.Split(*costWorkers, ",")
		log.Info("distributed costing enabled", "cost_workers", len(cfg.CostWorkers))
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Error("startup", "error", err)
		os.Exit(1)
	}
	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slowloris and stuck-client protection: bound how long a
		// request may take to arrive and how long idle keep-alives
		// hang around. No WriteTimeout — job submission is async, so
		// responses are small and fast, but /metrics under load should
		// not be cut off mid-body.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("idxmerged listening", "addr", *addr, "workers", *workers, "queue", *queue)

	select {
	case err := <-errc:
		// Listener failed before any signal (e.g. port in use).
		log.Error("serve", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	log.Info("shutting down", "drain_timeout", drainTimeout.String())

	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		log.Warn("http shutdown", "error", err)
	}
	if err := srv.Drain(sctx); err != nil {
		log.Warn("jobs canceled at drain deadline", "error", err)
		fmt.Fprintln(os.Stderr, "idxmerged: drain deadline hit; remaining jobs canceled")
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("serve", "error", err)
		os.Exit(1)
	}
	log.Info("idxmerged stopped")
}

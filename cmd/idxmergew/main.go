// Command idxmergew is a stateless what-if costing worker: it builds
// (or loads) a database once, freezes it read-only, and serves batched
// cost RPCs over HTTP for a coordinating idxmerge / idxmerged process
// (see internal/distrib). Several workers pointed at the same
// -db/-scale/-seed spec form a pool; the coordinator verifies each
// worker's database fingerprint before dispatching, so a mismatched
// worker can never contribute wrong costs.
//
// Usage:
//
//	idxmergew [-addr :7791] [-db tpcd] [-scale 1.0] [-seed 1]
//	          [-faults rules] [-pprof]
//
// -db accepts the same specs as idxmerge: tpcd | synthetic1 |
// synthetic2 | file:PATH. -faults installs deterministic
// fault-injection rules (e.g. latency on optimizer.cost to emulate a
// slow commercial optimizer). SIGINT/SIGTERM shut down gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"indexmerge/internal/datagen"
	"indexmerge/internal/distrib"
	"indexmerge/internal/engine"
	"indexmerge/internal/faults"
)

func main() {
	addr := flag.String("addr", ":7791", "listen address")
	dbName := flag.String("db", "tpcd", "database spec: tpcd | synthetic1 | synthetic2 | file:PATH (must match the coordinator's)")
	scale := flag.Float64("scale", 1.0, "database scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	faultRules := flag.String("faults", "", "fault-injection rules, semicolon-separated (chaos testing; see internal/faults)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
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

	db, err := datagen.BuildNamed(*dbName, *scale, *seed)
	if err != nil {
		log.Error("build database", "db", *dbName, "error", err)
		os.Exit(1)
	}
	// Freeze: the worker costs against a read-only database, so
	// concurrent batches need no locking and the fingerprint the
	// coordinator verified stays true for the process lifetime.
	snap := db.Snapshot()
	wk := distrib.NewWorker(snap.DB())

	mux := http.NewServeMux()
	mux.Handle("/", wk.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		// No ReadTimeout: cost batches arrive as one body, but a
		// latency-faulted worker (chaos tests) can hold requests longer
		// than any fixed bound; the coordinator enforces its own RPC
		// timeout and hedges stragglers.
		IdleTimeout: 2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("idxmergew listening", "addr", *addr, "db", *dbName,
		"fingerprint", engine.FingerprintString(wk.Fingerprint()),
		"data_bytes", snap.DB().DataBytes())

	select {
	case err := <-errc:
		log.Error("serve", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		log.Warn("http shutdown", "error", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("serve", "error", err)
		os.Exit(1)
	}
	log.Info("idxmergew stopped")
}

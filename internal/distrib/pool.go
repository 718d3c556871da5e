package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indexmerge/internal/core"
	"indexmerge/internal/engine"
	"indexmerge/internal/faults"
	"indexmerge/internal/sql"
)

// ErrNoWorkers is returned when every pool endpoint is down or
// incompatible; callers respond by costing locally.
var ErrNoWorkers = errors.New("distrib: no healthy workers")

// Options tunes a Pool. The zero value picks the defaults.
type Options struct {
	// Timeout bounds each worker RPC. Default 30s.
	Timeout time.Duration
	// HedgeAfter re-dispatches a still-unanswered chunk to a second
	// worker after this delay — results are identical, first answer
	// wins, so hedging stragglers is free of determinism concerns.
	// Default 2s; negative disables hedging.
	HedgeAfter time.Duration
	// Cooldown keeps a failed worker out of rotation before it is
	// retried. Default 5s.
	Cooldown time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// Pool fans batched cost requests out over a fixed set of worker
// endpoints. Failed workers are benched for a cooldown and retried;
// workers whose database fingerprint or workload shape disagrees with
// the coordinator's are benched permanently. The pool itself never
// decides costs — it only transports them — so every error path
// simply surfaces to the checker, which falls back to local costing.
type Pool struct {
	eps        []*endpoint
	client     *http.Client
	timeout    time.Duration
	hedgeAfter time.Duration
	cooldown   time.Duration

	rr atomic.Int64 // rotates chunk→worker assignment across batches

	batches   atomic.Int64 // scatter calls (one per checker batch)
	items     atomic.Int64 // cells shipped
	rpcs      atomic.Int64 // chunk RPCs issued (includes hedges)
	rpcErrors atomic.Int64 // chunk RPCs failed
	hedges    atomic.Int64 // straggler re-dispatches
}

type endpoint struct {
	url string

	mu        sync.Mutex
	downUntil time.Time
	bad       bool // permanent: wrong fingerprint/protocol/workload shape
	checked   bool // /v1/info verified against the coordinator DB
}

// NewPool builds a pool over worker base URLs ("http://host:port").
func NewPool(urls []string, opts Options) *Pool {
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.HedgeAfter == 0 {
		opts.HedgeAfter = 2 * time.Second
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 5 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	p := &Pool{
		client:     opts.Client,
		timeout:    opts.Timeout,
		hedgeAfter: opts.HedgeAfter,
		cooldown:   opts.Cooldown,
	}
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			p.eps = append(p.eps, &endpoint{url: u})
		}
	}
	return p
}

// Size returns the number of configured endpoints.
func (p *Pool) Size() int { return len(p.eps) }

// Stats is a snapshot of pool activity for /metrics and reports.
type Stats struct {
	Workers   int
	Healthy   int
	Batches   int64
	Items     int64
	RPCs      int64
	RPCErrors int64
	Hedges    int64
}

// PoolStats snapshots the pool's counters and health.
func (p *Pool) PoolStats() Stats {
	return Stats{
		Workers:   len(p.eps),
		Healthy:   len(p.healthy()),
		Batches:   p.batches.Load(),
		Items:     p.items.Load(),
		RPCs:      p.rpcs.Load(),
		RPCErrors: p.rpcErrors.Load(),
		Hedges:    p.hedges.Load(),
	}
}

func (p *Pool) healthy() []*endpoint {
	now := time.Now()
	out := make([]*endpoint, 0, len(p.eps))
	for _, ep := range p.eps {
		ep.mu.Lock()
		ok := !ep.bad && !now.Before(ep.downUntil)
		ep.mu.Unlock()
		if ok {
			out = append(out, ep)
		}
	}
	return out
}

func (p *Pool) markDown(ep *endpoint) {
	ep.mu.Lock()
	ep.downUntil = time.Now().Add(p.cooldown)
	ep.mu.Unlock()
}

func markBad(ep *endpoint) {
	ep.mu.Lock()
	ep.bad = true
	ep.mu.Unlock()
}

// post issues one JSON RPC under the pool's per-RPC timeout.
func (p *Pool) post(ctx context.Context, ep *endpoint, path string, in, out any) error {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ep.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("distrib: %s%s: %s: %s", ep.url, path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (p *Pool) get(ctx context.Context, ep *endpoint, path string, out any) error {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("distrib: %s%s: %s", ep.url, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// checkInfo verifies an endpoint's database fingerprint and protocol
// once. A mismatch benches the worker permanently: it would return
// valid-looking but wrong costs.
func (p *Pool) checkInfo(ctx context.Context, ep *endpoint, fp uint64) error {
	ep.mu.Lock()
	checked := ep.checked
	ep.mu.Unlock()
	if checked {
		return nil
	}
	var info InfoResponse
	if err := p.get(ctx, ep, "/v1/info", &info); err != nil {
		p.markDown(ep)
		return err
	}
	if info.Protocol != protocolVersion {
		markBad(ep)
		return fmt.Errorf("distrib: %s speaks protocol %d, want %d", ep.url, info.Protocol, protocolVersion)
	}
	if info.Fingerprint != engine.FingerprintString(fp) {
		markBad(ep)
		return fmt.Errorf("distrib: %s database fingerprint %s != coordinator %s",
			ep.url, info.Fingerprint, engine.FingerprintString(fp))
	}
	ep.mu.Lock()
	ep.checked = true
	ep.mu.Unlock()
	return nil
}

// Bind registers a workload on every reachable, fingerprint-compatible
// worker and returns a Binding that costs batches against it. The
// serialized text round-trips exactly (canonical SQL, shortest-float
// frequencies), and each worker's parsed query count must match the
// coordinator's — cost requests name queries by position — or the
// worker is benched permanently. Bind succeeds if at least one worker
// accepted the workload; others can rejoin later (EnsureWorker re-registers on
// first use after recovery is not attempted — a benched worker
// returning serves 404 and the batch falls back locally, so
// correctness never depends on registration coverage).
func (p *Pool) Bind(ctx context.Context, name string, fp uint64, w *sql.Workload) (*Binding, error) {
	var sb strings.Builder
	if err := sql.WriteWorkload(&sb, w); err != nil {
		return nil, err
	}
	req := RegisterWorkloadRequest{Name: name, SQL: sb.String()}
	ok := 0
	var firstErr error
	for _, ep := range p.eps {
		if err := p.checkInfo(ctx, ep, fp); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var resp RegisterWorkloadResponse
		if err := p.post(ctx, ep, "/v1/workloads", req, &resp); err != nil {
			p.markDown(ep)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if resp.Queries != w.Len() {
			markBad(ep)
			if firstErr == nil {
				firstErr = fmt.Errorf("distrib: %s parsed workload %q as %d queries, coordinator has %d",
					ep.url, name, resp.Queries, w.Len())
			}
			continue
		}
		ok++
	}
	if ok == 0 {
		if firstErr == nil {
			firstErr = ErrNoWorkers
		}
		return nil, firstErr
	}
	return &Binding{pool: p, name: name}, nil
}

// scatter splits n items into contiguous chunks across the healthy
// workers and runs them concurrently; run fills the caller's output
// slice for [lo, hi) so results reassemble in request order
// regardless of which worker answered. Any chunk error fails the
// whole batch — the checkers' local fallback re-costs everything, and
// partial remote results would still be installed cache-identically,
// so nothing is wasted but nothing is ambiguous either.
func (p *Pool) scatter(ctx context.Context, n int, run func(lo, hi int, primary, alt *endpoint) error) error {
	if n == 0 {
		return nil
	}
	if err := faults.Inject(faults.DistribRPC); err != nil {
		p.rpcErrors.Add(1)
		return err
	}
	eps := p.healthy()
	if len(eps) == 0 {
		return ErrNoWorkers
	}
	chunks := len(eps)
	if chunks > n {
		chunks = n
	}
	base := int(p.rr.Add(1) - 1)
	per, rem := n/chunks, n%chunks
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	lo := 0
	for i := 0; i < chunks; i++ {
		sz := per
		if i < rem {
			sz++
		}
		hi := lo + sz
		primary := eps[(base+i)%len(eps)]
		var alt *endpoint
		if len(eps) > 1 {
			alt = eps[(base+i+1)%len(eps)]
		}
		wg.Add(1)
		go func(i, lo, hi int, primary, alt *endpoint) {
			defer wg.Done()
			errs[i] = run(lo, hi, primary, alt)
		}(i, lo, hi, primary, alt)
		lo = hi
	}
	wg.Wait()
	p.batches.Add(1)
	p.items.Add(int64(n))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runChunk posts one chunk to its primary worker, hedging to alt if
// the primary has not answered after hedgeAfter (or failed outright).
// First successful response wins; a duplicate response computes
// identical floats, so discarding it is harmless.
func (p *Pool) runChunk(ctx context.Context, req *CostRequest, primary, alt *endpoint) (*CostResponse, error) {
	type result struct {
		ep   *endpoint
		resp *CostResponse
		err  error
	}
	ch := make(chan result, 2)
	call := func(ep *endpoint) {
		p.rpcs.Add(1)
		var resp CostResponse
		err := p.post(ctx, ep, "/v1/cost", req, &resp)
		ch <- result{ep: ep, resp: &resp, err: err}
	}
	go call(primary)
	inflight := 1
	altLaunched := alt == nil
	var hedge <-chan time.Time
	if !altLaunched && p.hedgeAfter > 0 {
		t := time.NewTimer(p.hedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				return r.resp, nil
			}
			p.rpcErrors.Add(1)
			p.markDown(r.ep)
			if firstErr == nil {
				firstErr = r.err
			}
			if !altLaunched {
				// Primary failed before the hedge fired: retry on the
				// alternate immediately.
				altLaunched = true
				hedge = nil
				inflight++
				go call(alt)
				continue
			}
			if inflight == 0 {
				return nil, firstErr
			}
		case <-hedge:
			hedge = nil
			altLaunched = true
			p.hedges.Add(1)
			inflight++
			go call(alt)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Binding ties a pool to one registered workload; it is the worker
// pool as a checker sees it.
type Binding struct {
	pool *Pool
	name string
}

var _ core.BatchCostServer = (*Binding)(nil)

// Pool returns the underlying pool (metrics).
func (b *Binding) Pool() *Pool { return b.pool }

// CostBatch implements core.BatchCostServer: each item carries its own
// configuration; the batch is sharded across workers.
func (b *Binding) CostBatch(ctx context.Context, items []core.BatchItem) ([]float64, error) {
	out := make([]float64, len(items))
	err := b.pool.scatter(ctx, len(items), func(lo, hi int, primary, alt *endpoint) error {
		wire := make([]CostItemWire, hi-lo)
		for i, it := range items[lo:hi] {
			wire[i] = CostItemWire{Members: it.Members, Indexes: toWire(it.Defs)}
		}
		resp, err := b.pool.runChunk(ctx, &CostRequest{Workload: b.name, Items: wire}, primary, alt)
		if err != nil {
			return err
		}
		if len(resp.Costs) != hi-lo {
			return fmt.Errorf("distrib: got %d costs, want %d", len(resp.Costs), hi-lo)
		}
		copy(out[lo:hi], resp.Costs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

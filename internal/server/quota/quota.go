// Package quota implements per-tenant admission control for the
// advisor daemon: bounded live sessions, bounded queued+running jobs,
// a token-bucket rate limit on ingest statements, and a byte-accounted
// memory budget. The controller is pure accounting — it holds no
// references into sessions or jobs, so the server can rebuild its
// state exactly during journal replay by re-driving the same
// acquire/release sequence the original process performed.
//
// Every limit defaults to zero, meaning unlimited: a daemon started
// without -quota-* flags behaves exactly as before.
package quota

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Limits configures per-tenant ceilings. Zero values mean unlimited.
type Limits struct {
	// MaxSessions bounds live (non-deleted) sessions per tenant.
	MaxSessions int
	// MaxJobs bounds queued+running jobs per tenant.
	MaxJobs int
	// IngestPerSec refills the per-tenant ingest token bucket at this
	// many statements per second.
	IngestPerSec float64
	// IngestBurst caps the bucket (defaults to IngestPerSec when unset
	// but rate-limited).
	IngestBurst float64
	// MemoryBytes bounds a tenant's byte-accounted footprint (windows
	// and cost tables).
	MemoryBytes int64
}

// Verdict is one admission decision. A non-OK verdict carries the
// machine-readable fields the HTTP layer serializes into the 429 body:
// the quota that tripped, its limit, the tenant's current usage, and
// how long the caller should wait before retrying.
type Verdict struct {
	OK         bool
	Code       string // stable error code, e.g. "quota_sessions"
	Quota      string // human name of the quota dimension
	Limit      int64
	Current    int64
	RetryAfter time.Duration
}

func allow() Verdict { return Verdict{OK: true} }

// Usage is a point-in-time snapshot of one tenant's accounting, for
// metrics and status payloads.
type Usage struct {
	Tenant   string
	Sessions int
	Jobs     int
	// IngestShed counts statements rejected by the rate limiter.
	IngestShed int64
}

// tenant is one tenant's live accounting.
type tenant struct {
	sessions   int
	jobs       int
	tokens     float64
	last       time.Time
	ingestShed int64
}

// Controller tracks per-tenant usage against Limits. Safe for
// concurrent use. The zero value is not usable; call NewController.
type Controller struct {
	limits Limits
	now    func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenant
}

// NewController builds a controller over the given limits.
func NewController(l Limits) *Controller {
	if l.IngestPerSec > 0 && l.IngestBurst <= 0 {
		l.IngestBurst = l.IngestPerSec
	}
	return &Controller{
		limits:  l,
		now:     time.Now,
		tenants: make(map[string]*tenant),
	}
}

// SetClock overrides the controller's time source (tests only).
func (c *Controller) SetClock(now func() time.Time) { c.now = now }

// Limits returns the configured ceilings.
func (c *Controller) Limits() Limits { return c.limits }

func (c *Controller) tenantLocked(name string) *tenant {
	t := c.tenants[name]
	if t == nil {
		t = &tenant{tokens: c.limits.IngestBurst, last: c.now()}
		c.tenants[name] = t
	}
	return t
}

// AcquireSession admits one new session for tenant, or explains why
// not. A successful acquire must be paired with ReleaseSession.
func (c *Controller) AcquireSession(name string) Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantLocked(name)
	if c.limits.MaxSessions > 0 && t.sessions >= c.limits.MaxSessions {
		return Verdict{
			Code:       "quota_sessions",
			Quota:      "sessions",
			Limit:      int64(c.limits.MaxSessions),
			Current:    int64(t.sessions),
			RetryAfter: time.Second,
		}
	}
	t.sessions++
	return allow()
}

// ReleaseSession returns one session slot.
func (c *Controller) ReleaseSession(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.tenants[name]; t != nil && t.sessions > 0 {
		t.sessions--
	}
}

// AcquireJob admits one queued-or-running job for tenant. A successful
// acquire must be paired with exactly one ReleaseJob when the job
// reaches a terminal state.
func (c *Controller) AcquireJob(name string) Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantLocked(name)
	if c.limits.MaxJobs > 0 && t.jobs >= c.limits.MaxJobs {
		return Verdict{
			Code:       "quota_jobs",
			Quota:      "jobs",
			Limit:      int64(c.limits.MaxJobs),
			Current:    int64(t.jobs),
			RetryAfter: time.Second,
		}
	}
	t.jobs++
	return allow()
}

// ReleaseJob returns one job slot.
func (c *Controller) ReleaseJob(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.tenants[name]; t != nil && t.jobs > 0 {
		t.jobs--
	}
}

// AllowIngest asks for n statements' worth of ingest tokens. On
// rejection, RetryAfter is the time until the bucket refills enough to
// admit the batch (capped at one minute so a batch larger than the
// burst still gets a finite hint).
func (c *Controller) AllowIngest(name string, n int) Verdict {
	if c.limits.IngestPerSec <= 0 {
		return allow()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tenantLocked(name)
	now := c.now()
	t.tokens += now.Sub(t.last).Seconds() * c.limits.IngestPerSec
	if t.tokens > c.limits.IngestBurst {
		t.tokens = c.limits.IngestBurst
	}
	t.last = now
	need := float64(n)
	if t.tokens >= need {
		t.tokens -= need
		return allow()
	}
	t.ingestShed += int64(n)
	wait := (need - t.tokens) / c.limits.IngestPerSec
	retry := time.Duration(math.Ceil(wait)) * time.Second
	if retry > time.Minute {
		retry = time.Minute
	}
	if retry < time.Second {
		retry = time.Second
	}
	return Verdict{
		Code:       "quota_ingest_rate",
		Quota:      "ingest_rate",
		Limit:      int64(c.limits.IngestPerSec),
		Current:    int64(n),
		RetryAfter: retry,
	}
}

// RecordIngestShed charges n shed statements to a tenant's ingest-shed
// counter without consuming tokens — used when a batch is admitted by
// the rate limiter but then shed by the brownout ladder.
func (c *Controller) RecordIngestShed(name string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tenantLocked(name).ingestShed += int64(n)
}

// CheckMemory verifies that a tenant currently holding current
// accounted bytes may grow. The caller supplies the measurement (the
// controller holds no session references); the check rejects once the
// tenant is at or over budget.
func (c *Controller) CheckMemory(name string, current int64) Verdict {
	if c.limits.MemoryBytes <= 0 || current < c.limits.MemoryBytes {
		return allow()
	}
	return Verdict{
		Code:       "quota_memory",
		Quota:      "memory_bytes",
		Limit:      c.limits.MemoryBytes,
		Current:    current,
		RetryAfter: time.Second,
	}
}

// UsageAll snapshots every tenant the controller has seen, sorted by
// nothing in particular; callers sort for stable output.
func (c *Controller) UsageAll() []Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Usage, 0, len(c.tenants))
	for name, t := range c.tenants {
		out = append(out, Usage{
			Tenant:     name,
			Sessions:   t.sessions,
			Jobs:       t.jobs,
			IngestShed: t.ingestShed,
		})
	}
	return out
}

// UsageFor snapshots one tenant (zero Usage if never seen).
func (c *Controller) UsageFor(name string) Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := Usage{Tenant: name}
	if t := c.tenants[name]; t != nil {
		u.Sessions = t.sessions
		u.Jobs = t.jobs
		u.IngestShed = t.ingestShed
	}
	return u
}

// String renders a verdict for logs.
func (v Verdict) String() string {
	if v.OK {
		return "ok"
	}
	return fmt.Sprintf("%s: limit=%d current=%d retry_after=%s",
		v.Code, v.Limit, v.Current, v.RetryAfter)
}

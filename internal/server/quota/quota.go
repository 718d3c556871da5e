// Package quota is the per-tenant admission policy of the advisor
// daemon: bounded live sessions, bounded queued+running jobs, a
// token-bucket rate limit on ingest statements, and a byte-accounted
// memory budget. Sessions, jobs and bytes are counted where they live —
// the registry, the job manager and the sessions — and handed to the
// Check functions; the controller holds only the ingest token buckets,
// and drops a bucket once it has refilled to its burst, since a fresh
// bucket is identical. Journal replay therefore needs nothing of this
// package: recreating the sessions recreates the counts.
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

// bucket is one tenant's ingest token bucket as of last.
type bucket struct {
	tokens float64
	last   time.Time
}

// Controller judges per-tenant usage against Limits. Safe for
// concurrent use. The zero value is not usable; call NewController.
type Controller struct {
	limits Limits
	now    func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket // tenants whose bucket is below its burst
}

// NewController builds a controller over the given limits.
func NewController(l Limits) *Controller {
	if l.IngestPerSec > 0 && l.IngestBurst <= 0 {
		l.IngestBurst = l.IngestPerSec
	}
	return &Controller{
		limits:  l,
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// SetClock overrides the controller's time source (tests only).
func (c *Controller) SetClock(now func() time.Time) { c.now = now }

// check admits current below limit (or any current when limit <= 0),
// and otherwise refuses with a one-second retry hint: a slot comes back
// when a session or job ends, which the caller cannot predict.
func check(code, dim string, limit, current int64) Verdict {
	if limit <= 0 || current < limit {
		return allow()
	}
	return Verdict{Code: code, Quota: dim, Limit: limit, Current: current, RetryAfter: time.Second}
}

// CheckSessions admits one more session for a tenant that holds current
// live or building sessions.
func (c *Controller) CheckSessions(current int) Verdict {
	return check("quota_sessions", "sessions", int64(c.limits.MaxSessions), int64(current))
}

// CheckJobs admits one more job for a tenant that holds current queued
// or running jobs.
func (c *Controller) CheckJobs(current int) Verdict {
	return check("quota_jobs", "jobs", int64(c.limits.MaxJobs), int64(current))
}

// CheckMemory verifies that a tenant currently holding current
// accounted bytes may grow; it rejects once the tenant is at or over
// budget.
func (c *Controller) CheckMemory(current int64) Verdict {
	return check("quota_memory", "memory_bytes", c.limits.MemoryBytes, current)
}

// level is b's token count at now: refilled at the rate, capped at the
// burst.
func (c *Controller) level(b *bucket, now time.Time) float64 {
	return min(c.limits.IngestBurst, b.tokens+now.Sub(b.last).Seconds()*c.limits.IngestPerSec)
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
	now := c.now()
	b := c.buckets[name]
	if b == nil {
		b = &bucket{tokens: c.limits.IngestBurst}
		c.buckets[name] = b
	} else {
		b.tokens = c.level(b, now)
	}
	b.last = now
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		return allow()
	}
	wait := (need - b.tokens) / c.limits.IngestPerSec
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

// Sweep drops every bucket that has refilled to its burst. The server
// sweeps whenever a session is created or deleted, so a bucket outlives
// its refill only until the next such change.
func (c *Controller) Sweep() {
	if c.limits.IngestPerSec <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for name, b := range c.buckets {
		if c.level(b, now) >= c.limits.IngestBurst {
			delete(c.buckets, name)
		}
	}
}

// Buckets counts the tenants whose bucket is held: all the state the
// controller has.
func (c *Controller) Buckets() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buckets)
}

// String renders a verdict for logs.
func (v Verdict) String() string {
	if v.OK {
		return "ok"
	}
	return fmt.Sprintf("%s: limit=%d current=%d retry_after=%s",
		v.Code, v.Limit, v.Current, v.RetryAfter)
}

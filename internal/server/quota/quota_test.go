package quota

import (
	"testing"
	"time"
)

func TestSessionQuota(t *testing.T) {
	c := NewController(Limits{MaxSessions: 2})
	if v := c.AcquireSession("a"); !v.OK {
		t.Fatalf("first acquire rejected: %v", v)
	}
	if v := c.AcquireSession("a"); !v.OK {
		t.Fatalf("second acquire rejected: %v", v)
	}
	v := c.AcquireSession("a")
	if v.OK {
		t.Fatal("third acquire admitted past limit")
	}
	if v.Code != "quota_sessions" || v.Limit != 2 || v.Current != 2 {
		t.Fatalf("bad verdict: %+v", v)
	}
	if v.RetryAfter <= 0 {
		t.Fatal("rejection carries no Retry-After")
	}
	// Other tenants are unaffected.
	if v := c.AcquireSession("b"); !v.OK {
		t.Fatalf("tenant b rejected by tenant a's usage: %v", v)
	}
	c.ReleaseSession("a")
	if v := c.AcquireSession("a"); !v.OK {
		t.Fatalf("acquire after release rejected: %v", v)
	}
	// Release below zero must not underflow.
	c.ReleaseSession("never-seen")
	if u := c.UsageFor("never-seen"); u.Sessions != 0 {
		t.Fatalf("underflow: %+v", u)
	}
}

func TestJobQuota(t *testing.T) {
	c := NewController(Limits{MaxJobs: 1})
	if v := c.AcquireJob("a"); !v.OK {
		t.Fatalf("acquire rejected: %v", v)
	}
	if v := c.AcquireJob("a"); v.OK {
		t.Fatal("second job admitted past limit")
	} else if v.Code != "quota_jobs" {
		t.Fatalf("bad code: %+v", v)
	}
	c.ReleaseJob("a")
	if v := c.AcquireJob("a"); !v.OK {
		t.Fatalf("acquire after release rejected: %v", v)
	}
}

func TestIngestTokenBucket(t *testing.T) {
	c := NewController(Limits{IngestPerSec: 10, IngestBurst: 10})
	now := time.Unix(0, 0)
	c.SetClock(func() time.Time { return now })

	if v := c.AllowIngest("a", 10); !v.OK {
		t.Fatalf("burst rejected: %v", v)
	}
	v := c.AllowIngest("a", 5)
	if v.OK {
		t.Fatal("empty bucket admitted")
	}
	if v.Code != "quota_ingest_rate" || v.RetryAfter < time.Second {
		t.Fatalf("bad verdict: %+v", v)
	}
	// Half a second refills 5 tokens.
	now = now.Add(500 * time.Millisecond)
	if v := c.AllowIngest("a", 5); !v.OK {
		t.Fatalf("refilled bucket rejected: %v", v)
	}
	// Refill caps at the burst.
	now = now.Add(time.Hour)
	if v := c.AllowIngest("a", 11); v.OK {
		t.Fatal("admitted more than burst after long idle")
	}
	if u := c.UsageFor("a"); u.IngestShed != 16 {
		t.Fatalf("ingest shed count = %d, want 16", u.IngestShed)
	}
	// Unlimited controller always admits.
	free := NewController(Limits{})
	if v := free.AllowIngest("a", 1<<20); !v.OK {
		t.Fatalf("unlimited rejected: %v", v)
	}
}

func TestMemoryCheck(t *testing.T) {
	c := NewController(Limits{MemoryBytes: 1000})
	if v := c.CheckMemory("a", 999); !v.OK {
		t.Fatalf("under budget rejected: %v", v)
	}
	v := c.CheckMemory("a", 1000)
	if v.OK {
		t.Fatal("at budget admitted")
	}
	if v.Code != "quota_memory" || v.Limit != 1000 || v.Current != 1000 {
		t.Fatalf("bad verdict: %+v", v)
	}
	if v := NewController(Limits{}).CheckMemory("a", 1<<40); !v.OK {
		t.Fatal("unlimited memory rejected")
	}
}

package quota

import (
	"testing"
	"time"
)

func TestSessionQuota(t *testing.T) {
	c := NewController(Limits{MaxSessions: 2})
	for current := 0; current < 2; current++ {
		if v := c.CheckSessions(current); !v.OK {
			t.Fatalf("tenant holding %d sessions rejected: %v", current, v)
		}
	}
	v := c.CheckSessions(2)
	if v.OK {
		t.Fatal("third session admitted past limit")
	}
	if v.Code != "quota_sessions" || v.Quota != "sessions" || v.Limit != 2 || v.Current != 2 {
		t.Fatalf("bad verdict: %+v", v)
	}
	if v.RetryAfter <= 0 {
		t.Fatal("rejection carries no Retry-After")
	}
	if v := NewController(Limits{}).CheckSessions(1 << 20); !v.OK {
		t.Fatalf("unlimited rejected: %v", v)
	}
}

func TestJobQuota(t *testing.T) {
	c := NewController(Limits{MaxJobs: 1})
	if v := c.CheckJobs(0); !v.OK {
		t.Fatalf("first job rejected: %v", v)
	}
	if v := c.CheckJobs(1); v.OK {
		t.Fatal("second job admitted past limit")
	} else if v.Code != "quota_jobs" || v.Limit != 1 || v.Current != 1 || v.RetryAfter <= 0 {
		t.Fatalf("bad verdict: %+v", v)
	}
	if v := NewController(Limits{}).CheckJobs(1 << 20); !v.OK {
		t.Fatalf("unlimited rejected: %v", v)
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
	// Unlimited controller always admits, and holds no bucket.
	free := NewController(Limits{})
	if v := free.AllowIngest("a", 1<<20); !v.OK {
		t.Fatalf("unlimited rejected: %v", v)
	}
	if n := free.Buckets(); n != 0 {
		t.Fatalf("unlimited controller holds %d buckets", n)
	}
}

// TestSweepDropsRefilledBuckets: a bucket is kept while it is below its
// burst and dropped by the first sweep after it refills; a tenant whose
// bucket was dropped starts again from a full one.
func TestSweepDropsRefilledBuckets(t *testing.T) {
	c := NewController(Limits{IngestPerSec: 10, IngestBurst: 10})
	now := time.Unix(0, 0)
	c.SetClock(func() time.Time { return now })

	c.AllowIngest("a", 10)
	c.AllowIngest("b", 2)
	now = now.Add(500 * time.Millisecond) // b is full again, a holds 5
	c.Sweep()
	if n := c.Buckets(); n != 1 {
		t.Fatalf("after b refilled: %d buckets, want a's alone", n)
	}
	if v := c.AllowIngest("b", 10); !v.OK {
		t.Fatalf("swept tenant does not start from a full bucket: %v", v)
	}
	now = now.Add(time.Second)
	c.Sweep()
	if n := c.Buckets(); n != 0 {
		t.Fatalf("after every bucket refilled: %d buckets, want 0", n)
	}
}

func TestMemoryCheck(t *testing.T) {
	c := NewController(Limits{MemoryBytes: 1000})
	if v := c.CheckMemory(999); !v.OK {
		t.Fatalf("under budget rejected: %v", v)
	}
	v := c.CheckMemory(1000)
	if v.OK {
		t.Fatal("at budget admitted")
	}
	if v.Code != "quota_memory" || v.Limit != 1000 || v.Current != 1000 {
		t.Fatalf("bad verdict: %+v", v)
	}
	if v := NewController(Limits{}).CheckMemory(1 << 40); !v.OK {
		t.Fatal("unlimited memory rejected")
	}
}

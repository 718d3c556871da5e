package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Journal event types. The journal is an append-only JSONL file: one
// self-describing event per line, fsynced per append, replayed in
// order at startup. Session databases are deterministic functions of
// (db, scale, seed) and workloads of their SQL/generation spec, so
// replaying the creation events rebuilds the exact pre-crash state;
// job searches are NOT re-run — a job with no terminal event is
// recovered as failed with an explicit recovery reason.
const (
	evSession        = "session"
	evSessionDeleted = "session_deleted"
	evWorkload       = "workload"
	evJob            = "job"
	evJobEnd         = "job_end"
	// Continuous-mode events (journal version 2).
	evIngest   = "ingest"
	evAge      = "age"
	evApply    = "apply"
	evRollback = "rollback"
	// evShrink (journal version 3): a brownout shrank a session's
	// continuous window reservoirs. Replayed before later ingests so the
	// seeded reservoir takes the same sampling path it took live —
	// without it, replay would rebuild a different window than the one
	// the process acknowledged.
	evShrink = "shrink"
)

// journalVersion is the schema version stamped on every appended
// record. Version history:
//
//	0 (absent) — the original session/workload/job events; still read.
//	2 — adds the continuous-mode events (ingest/age/apply/rollback)
//	    and the explicit version field itself.
//	3 — adds the brownout shrink event (and tenant fields on session
//	    creation requests, which ride along inside the journaled
//	    request payloads).
//
// Replay accepts records at or below this version and refuses newer
// ones loudly — a journal written by a future binary is not something
// to guess at.
const journalVersion = 3

// journalEvent is one journal line. Exactly the fields for its type
// are set; unknown fields within a known version are ignored on
// replay, but an unknown event TYPE fails recovery loudly (see
// recoverFromJournal) — silently dropping state transitions would
// replay a different history than the one acknowledged.
type journalEvent struct {
	T  string      `json:"t"`
	V  int         `json:"v,omitempty"` // schema version (0 = pre-versioned)
	At journalTime `json:"at"`

	// evSession: the full creation request (deterministic rebuild).
	Session *CreateSessionRequest `json:"session,omitempty"`
	// evSessionDeleted / evWorkload / evJob / continuous events: owning
	// session name.
	SessionName string `json:"session_name,omitempty"`
	// evWorkload: the full registration request.
	Workload *RegisterWorkloadRequest `json:"workload,omitempty"`
	// evJob / evJobEnd.
	JobID string `json:"job_id,omitempty"`
	// evJob.
	Kind         string `json:"kind,omitempty"`
	WorkloadName string `json:"workload_name,omitempty"`
	// evJobEnd.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`

	// evIngest: the batch's full request — replay re-parses and re-folds
	// it, and the seeded reservoir reproduces the exact window.
	Ingest *IngestRequest `json:"ingest,omitempty"`
	// evIngest: the batch sequence number (replay sanity check).
	Batch int64 `json:"batch,omitempty"`
	// evAge: the decay generation after aging.
	Generation int64 `json:"generation,omitempty"`
	// evApply / evRollback: the configuration now applied (empty on a
	// rollback to no indexes) and its estimated per-weight cost.
	Indexes []IndexDefPayload `json:"indexes,omitempty"`
	Est     float64           `json:"est,omitempty"`
	// evApply: the window weight the estimate was computed over.
	Weight float64 `json:"weight,omitempty"`
	// evRollback: the observed/estimated ratio that tripped the
	// guardrail.
	Ratio float64 `json:"ratio,omitempty"`
	// evShrink: the new per-template reservoir bound.
	Bound int `json:"bound,omitempty"`
}

// journalTime is a record's timestamp, written in UTC with all nine
// fractional digits: time.Time's own RFC 3339 form trims trailing zero
// nanoseconds, so identical histories wrote journals of different
// lengths. Replay reads either form (time.Time's UnmarshalJSON).
type journalTime struct{ time.Time }

const journalTimeLayout = "2006-01-02T15:04:05.000000000Z07:00"

// MarshalJSON writes the fixed-width form.
func (t journalTime) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, len(journalTimeLayout)+2), '"')
	return append(t.UTC().AppendFormat(b, journalTimeLayout), '"'), nil
}

// Journal is the durable session/job log. Appends are serialized and
// fsynced so an acknowledged state change survives SIGKILL; a torn
// final line (crash mid-write) is tolerated and skipped on replay.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	err error // first append failure; later appends are dropped
}

// OpenJournal opens (creating if needed) the journal for appending.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Append writes one event durably. The first I/O failure latches: the
// journal goes read-only-broken rather than interleaving partial
// lines, and the error is returned (callers log it; the server keeps
// serving — losing durability degrades recovery, not availability).
func (j *Journal) Append(ev journalEvent) error {
	if j == nil {
		return nil
	}
	if ev.At.IsZero() {
		ev.At = journalTime{time.Now()}
	}
	ev.V = journalVersion
	line, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		j.err = err
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
		return err
	}
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ReadJournal parses a journal file into events. Tolerant by design:
// a missing file is an empty journal; a malformed or truncated FINAL
// line (the torn write of a crash) is skipped; a malformed line
// followed by valid events is corruption and errors out.
func ReadJournal(path string) ([]journalEvent, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var events []journalEvent
	var badLine int // 1-based line number of first malformed line
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev journalEvent
		if err := json.Unmarshal(b, &ev); err != nil {
			if badLine == 0 {
				badLine = line
			}
			continue
		}
		if badLine != 0 {
			return nil, fmt.Errorf("journal %s: malformed line %d followed by valid events", path, badLine)
		}
		if ev.V > journalVersion {
			return nil, fmt.Errorf("journal %s: line %d has version %d, newer than this binary's %d",
				path, line, ev.V, journalVersion)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return events, nil
}

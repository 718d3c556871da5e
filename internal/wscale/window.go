package wscale

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// WindowConfig tunes a sliding workload window.
type WindowConfig struct {
	// MaxPerTemplate bounds the member reservoir kept per template
	// (default 32). Statements beyond the bound are reservoir-sampled:
	// every distinct statement a template has seen is equally likely to
	// be resident, so the members stay an unbiased constant sample of
	// the template's traffic.
	MaxPerTemplate int
	// Decay multiplies every template weight on Age (default 0.5).
	Decay float64
	// MinWeight drops templates whose decayed weight falls below it
	// (default 0.25) — stale query shapes age out of the window.
	MinWeight float64
	// Seed seeds the reservoir generator. Replaying the same ingest
	// sequence against the same seed reproduces the exact window state,
	// which is what makes journal replay deterministic.
	Seed int64
}

func (c WindowConfig) withDefaults() WindowConfig {
	if c.MaxPerTemplate <= 0 {
		c.MaxPerTemplate = 32
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 0.5
	}
	if c.MinWeight <= 0 {
		c.MinWeight = 0.25
	}
	return c
}

// IngestItem is one statement offered to the window: the resolved
// statement, its prepared descriptor (built by the caller against the
// advisor's statistics — the window never touches the optimizer), and
// its log frequency.
type IngestItem struct {
	Stmt *sql.SelectStmt
	PQ   *optimizer.PreparedQuery
	Freq float64
	// Text and Fingerprint are the canonical pair of the workload entry
	// the item came from (sql.WorkloadQuery); the window renders Stmt
	// when they are empty.
	Text        string
	Fingerprint string
}

// winMember is one resident statement of a template's reservoir.
type winMember struct {
	text string
	stmt *sql.SelectStmt
	pq   *optimizer.PreparedQuery
}

// winTemplate is one fingerprint class resident in the window.
type winTemplate struct {
	fp      string
	weight  float64
	seen    int64 // distinct statements offered to the reservoir
	epoch   int64 // bumped whenever the member set changes
	members []winMember
	texts   map[string]int // member canonical text -> members index
}

// Window is a bounded sliding view of a streaming workload: statements
// fold into fingerprint templates as they arrive, each template keeps a
// reservoir-sampled set of member statements (with the descriptors the
// caller prepared for their batch), and Age applies exponential decay so
// shapes that stop appearing fall out. Snapshot assembles the window into the
// (workload, compressed, prepared) triple the merge machinery consumes
// — in O(templates + members), with no re-preparation and no
// recompression from scratch.
//
// Safe for concurrent use; Ingest, Age and Snapshot serialize on one
// mutex.
type Window struct {
	mu         sync.Mutex
	cfg        WindowConfig
	rng        *rand.Rand
	templates  map[string]*winTemplate
	order      []string // fingerprints, first-seen order
	generation int64    // Age calls survived
	batches    int64
	statements int64 // statements folded (counting duplicates)
}

// NewWindow builds an empty window.
func NewWindow(cfg WindowConfig) *Window {
	cfg = cfg.withDefaults()
	return &Window{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		templates: make(map[string]*winTemplate),
	}
}

// Ingest folds one batch into the window: weights always accumulate;
// the member reservoir admits a statement whose canonical text is new
// to its template with probability MaxPerTemplate/seen (classic
// reservoir sampling over distinct statements). Returns the batch
// number (1-based).
func (w *Window) Ingest(items []IngestItem) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, it := range items {
		freq := it.Freq
		if freq <= 0 {
			freq = 1
		}
		text, fp := it.Text, it.Fingerprint
		if text == "" || fp == "" {
			text, fp = it.Stmt.Canonical()
		}
		t := w.templates[fp]
		if t == nil {
			t = &winTemplate{fp: fp, texts: make(map[string]int)}
			w.templates[fp] = t
			w.order = append(w.order, fp)
		}
		t.weight += freq
		w.statements++
		if _, ok := t.texts[text]; ok {
			continue // duplicate text: weight bump only, reservoir untouched
		}
		t.seen++
		m := winMember{text: text, stmt: it.Stmt, pq: it.PQ}
		if len(t.members) < w.cfg.MaxPerTemplate {
			t.texts[text] = len(t.members)
			t.members = append(t.members, m)
			t.epoch++
			continue
		}
		if j := w.rng.Int63n(t.seen); j < int64(w.cfg.MaxPerTemplate) {
			delete(t.texts, t.members[j].text)
			t.members[j] = m
			t.texts[text] = int(j)
			t.epoch++
		}
	}
	w.batches++
	return w.batches
}

// Age decays every template weight by the configured factor and drops
// templates below the minimum weight. Returns the new generation and
// how many templates aged out.
func (w *Window) Age() (generation int64, dropped int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := w.order[:0]
	for _, fp := range w.order {
		t := w.templates[fp]
		t.weight *= w.cfg.Decay
		if t.weight < w.cfg.MinWeight {
			delete(w.templates, fp)
			dropped++
			continue
		}
		keep = append(keep, fp)
	}
	w.order = keep
	w.generation++
	return w.generation, dropped
}

// FingerprintHash digests the window's template fingerprint SET
// (order-independent): the re-tuner skips a cycle when the hash is
// unchanged, since weights alone cannot introduce new access paths.
func (w *Window) FingerprintHash() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	fps := append([]string(nil), w.order...)
	sort.Strings(fps)
	h := fnv.New64a()
	for _, fp := range fps {
		h.Write([]byte(fp))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// WindowStats is a point-in-time summary for status and metrics.
type WindowStats struct {
	Templates  int
	Members    int
	Weight     float64
	Generation int64
	Batches    int64
	Statements int64
	// Bytes is the window's approximate resident footprint (member
	// texts plus fixed per-member and per-template overheads) — the
	// accounting basis for memory budgets.
	Bytes int64
}

// memberBytes and templateBytes are the fixed per-member/per-template
// overhead estimates behind Bytes: statement AST, prepared descriptor
// and map slots for a member; fingerprint, weight and bookkeeping for
// a template. Coarse by design — the quota subsystem needs a stable
// basis, not heap-exact numbers.
const (
	memberBytes   = 256
	templateBytes = 128
)

// Stats summarizes the window.
func (w *Window) Stats() WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WindowStats{
		Templates:  len(w.order),
		Generation: w.generation,
		Batches:    w.batches,
		Statements: w.statements,
	}
	for _, fp := range w.order {
		t := w.templates[fp]
		st.Members += len(t.members)
		st.Weight += t.weight
		st.Bytes += int64(len(fp)) + templateBytes
		for _, m := range t.members {
			st.Bytes += int64(len(m.text)) + memberBytes
		}
	}
	return st
}

// Bytes reports the window's approximate resident footprint; see
// WindowStats.Bytes.
func (w *Window) Bytes() int64 { return w.Stats().Bytes }

// MaxPerTemplate reports the current reservoir bound. The server
// consults it before journaling a shrink so no-op shrinks are not
// recorded.
func (w *Window) MaxPerTemplate() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cfg.MaxPerTemplate
}

// Shrink truncates every template's member reservoir to maxPerTemplate
// and lowers the window's bound so future ingests hold the smaller
// reservoirs. Truncation keeps the first members (the reservoir is an
// unbiased sample, so any subset is too) and bumps the epoch of every
// template it touches — cost-table entries summed over the old member
// sets invalidate exactly. Returns how many members were dropped. The
// brownout ladder calls this under memory pressure; a maxPerTemplate
// at or above the current bound is a no-op.
func (w *Window) Shrink(maxPerTemplate int) (dropped int) {
	if maxPerTemplate < 1 {
		maxPerTemplate = 1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if maxPerTemplate >= w.cfg.MaxPerTemplate {
		return 0
	}
	w.cfg.MaxPerTemplate = maxPerTemplate
	for _, fp := range w.order {
		t := w.templates[fp]
		if len(t.members) <= maxPerTemplate {
			continue
		}
		for _, m := range t.members[maxPerTemplate:] {
			delete(t.texts, m.text)
			dropped++
		}
		t.members = t.members[:maxPerTemplate]
		t.epoch++
	}
	return dropped
}

// WindowSnapshot is a frozen view of the window ready for costing: the
// assembled workload (member frequencies sum to the template weight),
// its compressed form, the prepared descriptors the members arrived with,
// and the per-template key prefixes and scale factors that let a
// persistent cost table survive weight changes across snapshots (see
// PrepareWindowed).
type WindowSnapshot struct {
	W  *sql.Workload
	C  *Compressed
	PW *optimizer.PreparedWorkload
	// TplKeys are per-template cost-table namespaces, stable across
	// snapshots: a fingerprint digest plus the reservoir epoch, so an
	// entry stays valid exactly as long as the member set it summed.
	TplKeys []string
	// Scales are the per-template weight/members factors applied to the
	// table's unweighted member-cost sums at read time.
	Scales      []float64
	TotalWeight float64
	Generation  int64
}

// Snapshot freezes the window for one re-tune cycle. Each template
// contributes its reservoir members at frequency weight/len(members),
// so the snapshot's total frequency equals the window's decayed weight
// while costing touches only resident members.
func (w *Window) Snapshot() *WindowSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	snap := &WindowSnapshot{Generation: w.generation}
	var queries []sql.WorkloadQuery
	var pqs []*optimizer.PreparedQuery
	var templates []*Template
	for _, fp := range w.order {
		t := w.templates[fp]
		if len(t.members) == 0 {
			continue
		}
		scale := t.weight / float64(len(t.members))
		// The window already groups members by fingerprint, so the
		// template is written down here, as Compress would find it:
		// members contiguous, frequency summed member by member.
		tpl := &Template{
			Fingerprint: fp,
			Members:     make([]int, 0, len(t.members)),
		}
		for _, m := range t.members {
			tpl.Members = append(tpl.Members, len(queries))
			tpl.Freq += scale
			queries = append(queries, sql.WorkloadQuery{Stmt: m.stmt, Freq: scale, Text: m.text, Fingerprint: fp})
			pqs = append(pqs, m.pq)
		}
		templates = append(templates, tpl)
		h := fnv.New64a()
		h.Write([]byte(fp))
		snap.TplKeys = append(snap.TplKeys,
			"f"+strconv.FormatUint(h.Sum64(), 16)+"e"+strconv.FormatInt(t.epoch, 10))
		snap.Scales = append(snap.Scales, scale)
		snap.TotalWeight += t.weight
	}
	snap.W = &sql.Workload{Queries: queries}
	snap.PW = &optimizer.PreparedWorkload{W: snap.W, Queries: pqs}
	snap.C = &Compressed{W: snap.W, Templates: templates}
	return snap
}

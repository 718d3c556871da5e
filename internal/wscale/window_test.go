package wscale

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"indexmerge/internal/core"
	"indexmerge/internal/core/costcache"
	"indexmerge/internal/experiments"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// windowRig is a lab plus a generated workload prepared for ingestion.
type windowRig struct {
	lab   *experiments.Lab
	w     *sql.Workload
	items []IngestItem
	cfg   *core.Configuration
}

func newWindowRig(t *testing.T, queries, duplication int) *windowRig {
	t.Helper()
	lab, err := experiments.NewSynthetic2Lab(experiments.LabOptions{Scale: 0.25, WorkloadQueries: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(lab.DB, workload.Options{
		Class: workload.Complex, Queries: queries, Duplication: duplication, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]IngestItem, len(w.Queries))
	for i, q := range w.Queries {
		pq, err := optimizer.PrepareQuery(q.Stmt, lab.DB)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = IngestItem{Stmt: q.Stmt, PQ: pq, Freq: q.Freq}
	}
	defs, err := lab.InitialConfiguration(w, 6)
	if err != nil {
		t.Fatal(err)
	}
	return &windowRig{lab: lab, w: w, items: items, cfg: core.NewConfiguration(defs)}
}

// TestWindowReservoirBound checks the reservoir invariants: members
// never exceed the bound, duplicate texts bump weight without touching
// the reservoir, total weight equals total ingested frequency, and the
// same ingest sequence against the same seed reproduces the exact
// member sets.
func TestWindowReservoirBound(t *testing.T) {
	r := newWindowRig(t, 8, 120)
	const maxPer = 5
	mk := func() *Window {
		return NewWindow(WindowConfig{MaxPerTemplate: maxPer, Seed: 42})
	}
	w1, w2 := mk(), mk()
	var totalFreq float64
	for i := 0; i < len(r.items); i += 16 {
		end := i + 16
		if end > len(r.items) {
			end = len(r.items)
		}
		w1.Ingest(r.items[i:end])
		w2.Ingest(r.items[i:end])
		for _, it := range r.items[i:end] {
			totalFreq += it.Freq
		}
	}
	st := w1.Stats()
	if st.Templates == 0 {
		t.Fatal("no templates after ingest")
	}
	if math.Abs(st.Weight-totalFreq) > 1e-9 {
		t.Fatalf("window weight %v != ingested frequency %v", st.Weight, totalFreq)
	}
	for fp, tpl := range w1.templates {
		if len(tpl.members) > maxPer {
			t.Fatalf("template %q holds %d members, bound %d", fp, len(tpl.members), maxPer)
		}
		if len(tpl.texts) != len(tpl.members) {
			t.Fatalf("template %q: texts index %d != members %d", fp, len(tpl.texts), len(tpl.members))
		}
		for text, i := range tpl.texts {
			if tpl.members[i].text != text {
				t.Fatalf("template %q: texts index points at wrong member", fp)
			}
		}
	}
	// Same seed, same sequence -> identical reservoirs.
	if w1.FingerprintHash() != w2.FingerprintHash() {
		t.Fatal("same ingest sequence produced different fingerprint sets")
	}
	for fp, t1 := range w1.templates {
		t2 := w2.templates[fp]
		if t2 == nil || len(t1.members) != len(t2.members) || t1.epoch != t2.epoch {
			t.Fatalf("template %q: reservoirs diverged under identical seeds", fp)
		}
		for i := range t1.members {
			if t1.members[i].text != t2.members[i].text {
				t.Fatalf("template %q member %d: %q != %q", fp, i, t1.members[i].text, t2.members[i].text)
			}
		}
	}
}

// TestWindowAge checks exponential decay and min-weight eviction.
func TestWindowAge(t *testing.T) {
	r := newWindowRig(t, 6, 0)
	w := NewWindow(WindowConfig{Decay: 0.5, MinWeight: 0.25, Seed: 1})
	w.Ingest(r.items)
	before := w.Stats()
	if before.Templates == 0 {
		t.Fatal("no templates")
	}
	gen, dropped := w.Age()
	if gen != 1 || dropped != 0 {
		t.Fatalf("first age: gen=%d dropped=%d, want 1, 0", gen, dropped)
	}
	after := w.Stats()
	if math.Abs(after.Weight-before.Weight/2) > 1e-9 {
		t.Fatalf("decayed weight %v, want %v", after.Weight, before.Weight/2)
	}
	// Repeated decay must eventually age every template out.
	for i := 0; i < 16 && w.Stats().Templates > 0; i++ {
		w.Age()
	}
	if st := w.Stats(); st.Templates != 0 {
		t.Fatalf("%d templates survived full decay", st.Templates)
	}
	if h := w.FingerprintHash(); h != NewWindow(WindowConfig{}).FingerprintHash() {
		t.Fatal("empty window hash != fresh window hash")
	}
}

// TestWindowSnapshotCosting is the windowed-costing invariant: a
// snapshot's decomposed workload cost must match the direct sum of
// member costs scaled by weight/members, and a second snapshot over an
// unchanged window must cost entirely from the shared table (zero new
// misses) even after weight-only changes.
func TestWindowSnapshotCosting(t *testing.T) {
	r := newWindowRig(t, 8, 40)
	// Roomy reservoir: every distinct text is resident, so re-ingesting
	// the same batch below is a pure weight change (a tight reservoir
	// would treat previously evicted texts as new and resample).
	w := NewWindow(WindowConfig{MaxPerTemplate: 64, Seed: 9})
	w.Ingest(r.items)

	table := costcache.NewBounded(0, 0)
	snap := w.Snapshot()
	if len(snap.TplKeys) != len(snap.C.Templates) || len(snap.Scales) != len(snap.C.Templates) {
		t.Fatalf("snapshot keys/scales (%d/%d) != templates %d",
			len(snap.TplKeys), len(snap.Scales), len(snap.C.Templates))
	}
	var wantWeight float64
	for _, tpl := range w.templates {
		wantWeight += tpl.weight
	}
	if math.Abs(snap.TotalWeight-wantWeight) > 1e-9 {
		t.Fatalf("snapshot weight %v != window weight %v", snap.TotalWeight, wantWeight)
	}

	p, err := PrepareWindowed(snap, r.lab.Opt, table)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.WorkloadCostContext(context.Background(), r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Direct reference: every snapshot member costed under the full
	// configuration at its snapshot frequency.
	cfgDefs := optimizer.Configuration(r.cfg.Defs())
	want := 0.0
	for i, q := range snap.W.Queries {
		c, err := r.lab.Opt.CostPrepared(snap.PW.Queries[i], cfgDefs)
		if err != nil {
			t.Fatal(err)
		}
		want += c * q.Freq
	}
	if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("windowed cost %v != direct member sum %v", got, want)
	}

	_, missesAfterFirst, _ := table.Stats()

	// Weight-only change: re-ingest the same statements (duplicate
	// texts bump weights, reservoir untouched). Entries keyed by
	// (fingerprint, epoch) must all survive.
	w.Ingest(r.items)
	snap2 := w.Snapshot()
	p2, err := PrepareWindowed(snap2, r.lab.Opt, table)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := p2.WorkloadCostContext(context.Background(), r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, missesAfterSecond, _ := table.Stats()
	if missesAfterSecond != missesAfterFirst {
		t.Fatalf("unchanged member sets recosted: misses %d -> %d", missesAfterFirst, missesAfterSecond)
	}
	if math.Abs(got2-2*got) > 1e-6*math.Max(1, got) {
		t.Fatalf("doubled weights: cost %v, want %v", got2, 2*got)
	}
}

// TestWindowSnapshotCarriesRenders: a statement is rendered once on its
// way through the window. Items that bring their workload entry's text
// and fingerprint fold exactly as items the window must render itself;
// every snapshot entry carries what its statement renders; and the
// snapshot's templates, written down from the window's own grouping,
// are the ones Compress finds by fingerprinting the entries afresh.
func TestWindowSnapshotCarriesRenders(t *testing.T) {
	r := newWindowRig(t, 8, 200)
	carried := make([]IngestItem, len(r.items))
	for i, q := range r.w.Queries {
		if q.Text == "" || q.Fingerprint == "" {
			t.Fatalf("generated entry %d carries no render", i)
		}
		carried[i] = r.items[i]
		carried[i].Text, carried[i].Fingerprint = q.Text, q.Fingerprint
	}
	cfg := WindowConfig{MaxPerTemplate: 5, Seed: 9}
	rendered, w := NewWindow(cfg), NewWindow(cfg)
	for _, win := range []*Window{rendered, w} {
		items := r.items
		if win == w {
			items = carried
		}
		win.Ingest(items[:len(items)/2])
		win.Age()
		win.Ingest(items[len(items)/2:])
	}
	if a, b := rendered.Stats(), w.Stats(); a != b {
		t.Fatalf("window of rendered items %+v, of carried items %+v", a, b)
	}

	snap, ref := w.Snapshot(), rendered.Snapshot()
	if len(snap.W.Queries) == 0 || len(snap.W.Queries) != len(ref.W.Queries) {
		t.Fatalf("snapshots hold %d and %d entries", len(snap.W.Queries), len(ref.W.Queries))
	}
	bare := &sql.Workload{}
	for i, q := range snap.W.Queries {
		if q.Text != q.Stmt.String() || q.Fingerprint != q.Stmt.Fingerprint() {
			t.Fatalf("snapshot entry %d carries %q / %q, its statement renders %q / %q",
				i, q.Text, q.Fingerprint, q.Stmt.String(), q.Stmt.Fingerprint())
		}
		if rq := ref.W.Queries[i]; rq.Text != q.Text || math.Float64bits(rq.Freq) != math.Float64bits(q.Freq) {
			t.Fatalf("snapshot entry %d differs between the two windows: %q x%v, %q x%v", i, q.Text, q.Freq, rq.Text, rq.Freq)
		}
		bare.Queries = append(bare.Queries, sql.WorkloadQuery{Stmt: q.Stmt, Freq: q.Freq})
	}
	for _, c := range []*Compressed{Compress(snap.W), Compress(bare)} {
		if !reflect.DeepEqual(snap.C.Templates, c.Templates) {
			t.Fatalf("snapshot templates differ from Compress:\n%+v\n%+v", snap.C.Templates, c.Templates)
		}
	}
	if snap.C.W != snap.W {
		t.Fatal("snapshot's compression points at another workload")
	}
}

// TestWindowEpochInvalidation checks that a member-set change bumps
// only that template's epoch, invalidating exactly its table entries.
func TestWindowEpochInvalidation(t *testing.T) {
	r := newWindowRig(t, 8, 40)
	w := NewWindow(WindowConfig{MaxPerTemplate: 64, Seed: 9})
	w.Ingest(r.items)
	snap := w.Snapshot()
	epochs := make(map[string]int64, len(w.order))
	for _, fp := range w.order {
		epochs[fp] = w.templates[fp].epoch
	}

	// New canonical texts within existing fingerprint classes: with a
	// roomy reservoir they are admitted directly, bumping exactly the
	// affected template's epoch. Feed one at a time and stop at the
	// first admission, so only ONE template may change.
	varied := variedBatch(t, r)
	changed := 0
	for _, it := range varied {
		w.Ingest([]IngestItem{it})
		changed = 0
		for _, fp := range w.order {
			if w.templates[fp].epoch != epochs[fp] {
				changed++
			}
		}
		if changed > 0 {
			break
		}
	}
	if changed == 0 {
		t.Fatal("varied batch changed no reservoir (test fixture too small)")
	}
	if changed != 1 {
		t.Fatalf("%d template epochs changed from one admitted statement", changed)
	}
	snap2 := w.Snapshot()
	diff := 0
	for i := range snap.TplKeys {
		if i < len(snap2.TplKeys) && snap.TplKeys[i] != snap2.TplKeys[i] {
			diff++
		}
	}
	if diff != changed {
		t.Fatalf("%d table key prefixes changed for %d epoch bumps", diff, changed)
	}
}

// variedBatch re-parses the rig's statements with one constant nudged,
// producing new canonical texts within existing fingerprint classes.
func variedBatch(t *testing.T, r *windowRig) []IngestItem {
	t.Helper()
	var items []IngestItem
	for _, q := range r.w.Queries {
		text := q.Stmt.String()
		// Nudge the first integer literal; skip statements without one.
		nudged := nudgeFirstInt(text)
		if nudged == text {
			continue
		}
		wl, err := sql.ParseWorkload(strings.NewReader(nudged), r.lab.DB.Schema())
		if err != nil || wl.Len() == 0 {
			continue
		}
		st := wl.Queries[0].Stmt
		if st.Fingerprint() != q.Stmt.Fingerprint() {
			continue
		}
		pq, err := optimizer.PrepareQuery(st, r.lab.DB)
		if err != nil {
			continue
		}
		items = append(items, IngestItem{Stmt: st, PQ: pq, Freq: 1})
	}
	if len(items) == 0 {
		t.Skip("no statements could be varied")
	}
	return items
}

// nudgeFirstInt increments the first standalone integer in s.
func nudgeFirstInt(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' && (i == 0 || !isWordByte(s[i-1])) {
			j := i
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			if j < len(s) && s[j] == '.' {
				continue // float; keep looking
			}
			var n int64
			fmt.Sscanf(s[i:j], "%d", &n)
			return s[:i] + fmt.Sprintf("%d", n+1) + s[j:]
		}
	}
	return s
}

func isWordByte(b byte) bool {
	return b == '_' || b == '.' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

// TestWindowBytesAndShrink covers the byte accounting and the brownout
// shrink: Bytes matches the Stats sum, Shrink clamps the reservoir
// bound (dropping the tail members and bumping epochs), repeated and
// looser shrinks are no-ops, and a shrink at the same point in two
// identically-seeded ingest sequences keeps the reservoirs identical —
// the property journal replay of brownout shrinks relies on.
func TestWindowBytesAndShrink(t *testing.T) {
	r := newWindowRig(t, 8, 120)
	mk := func() *Window {
		return NewWindow(WindowConfig{MaxPerTemplate: 12, Seed: 42})
	}
	w := mk()
	half := len(r.items) / 2
	w.Ingest(r.items[:half])
	if got, want := w.Bytes(), w.Stats().Bytes; got != want || got <= 0 {
		t.Fatalf("Bytes = %d, Stats.Bytes = %d; want equal and positive", got, want)
	}
	before := w.Stats()
	epochs := make(map[string]int64)
	oversized := make(map[string]bool)
	for fp, tpl := range w.templates {
		epochs[fp] = tpl.epoch
		oversized[fp] = len(tpl.members) > 4
	}

	dropped := w.Shrink(4)
	if w.MaxPerTemplate() != 4 {
		t.Fatalf("MaxPerTemplate after Shrink = %d, want 4", w.MaxPerTemplate())
	}
	after := w.Stats()
	if dropped != before.Members-after.Members {
		t.Fatalf("dropped = %d, members went %d -> %d", dropped, before.Members, after.Members)
	}
	if after.Bytes >= before.Bytes && dropped > 0 {
		t.Fatalf("bytes did not shrink: %d -> %d (dropped %d)", before.Bytes, after.Bytes, dropped)
	}
	if w.Bytes() != after.Bytes {
		t.Fatalf("Bytes = %d, Stats.Bytes = %d after shrink", w.Bytes(), after.Bytes)
	}
	for fp, tpl := range w.templates {
		if len(tpl.members) > 4 {
			t.Fatalf("template %q holds %d members after Shrink(4)", fp, len(tpl.members))
		}
		if len(tpl.texts) != len(tpl.members) {
			t.Fatalf("template %q: texts index out of sync after shrink", fp)
		}
		// Epochs bump exactly for the templates that lost members, so
		// their stale cost-table entries invalidate and the rest survive.
		bumped := tpl.epoch != epochs[fp]
		if bumped != oversized[fp] {
			t.Fatalf("template %q: epoch bumped=%v, lost members=%v", fp, bumped, oversized[fp])
		}
	}
	// Idempotent, and a looser bound is a no-op.
	if d := w.Shrink(4); d != 0 {
		t.Fatalf("repeat Shrink dropped %d", d)
	}
	if d := w.Shrink(12); d != 0 || w.MaxPerTemplate() != 4 {
		t.Fatalf("loosening Shrink dropped %d, bound %d; want no-op", d, w.MaxPerTemplate())
	}

	// Replay determinism: same seed, same sequence with the shrink at
	// the same point -> identical reservoirs afterwards.
	a, b := mk(), mk()
	a.Ingest(r.items[:half])
	b.Ingest(r.items[:half])
	a.Shrink(4)
	b.Shrink(4)
	a.Ingest(r.items[half:])
	b.Ingest(r.items[half:])
	if a.FingerprintHash() != b.FingerprintHash() || a.Bytes() != b.Bytes() {
		t.Fatal("shrink-interleaved ingest diverged under identical seeds")
	}
	for fp, t1 := range a.templates {
		t2 := b.templates[fp]
		if t2 == nil || len(t1.members) != len(t2.members) || t1.epoch != t2.epoch {
			t.Fatalf("template %q diverged after shrink replay", fp)
		}
		for i := range t1.members {
			if t1.members[i].text != t2.members[i].text {
				t.Fatalf("template %q member %d diverged after shrink replay", fp, i)
			}
		}
	}
}

package sql

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"indexmerge/internal/catalog"
)

// WorkloadQuery is one workload entry: a query and its frequency
// (weight). Frequencies arise from log compression and from business
// knowledge about how often a query runs.
type WorkloadQuery struct {
	Stmt *SelectStmt
	Freq float64

	// Text and Fingerprint are Stmt's canonical text and fingerprint,
	// rendered once when the entry was made (Add, ParseWorkload,
	// wscale.Window.Snapshot) so that folding, compression, the window
	// and WriteWorkload need not render again. Both are empty on an
	// entry built as a literal; read them through Canonical.
	Text        string
	Fingerprint string
}

// Canonical returns the entry's canonical text and fingerprint: the
// carried pair, or a render of Stmt for an entry built without them.
func (q WorkloadQuery) Canonical() (text, fingerprint string) {
	if q.Text != "" && q.Fingerprint != "" {
		return q.Text, q.Fingerprint
	}
	return q.Stmt.Canonical()
}

// Workload is the set of queries the index-merging algorithm optimizes
// for (paper §3.1: "A workload W of queries {Q1, Q2, ... QP}").
type Workload struct {
	Queries []WorkloadQuery

	// byText indexes Queries by canonical text so Add can fold
	// duplicates. Rebuilt lazily whenever it disagrees with Queries, so
	// zero-value and literal-constructed workloads keep working. The
	// keys are the entries' Text strings.
	byText map[string]int
	// fingerprints holds one string per template, shared by the
	// Fingerprint fields of all its entries.
	fingerprints map[string]string
}

// Add folds the query into the workload: a statement whose canonical
// text already appears has the frequency (minimum 1) added to the
// existing entry instead of being appended — and costed — twice. A
// statement that folds into an existing entry allocates nothing.
func (w *Workload) Add(stmt *SelectStmt, freq float64) { w.fold(stmt, freq) }

// fold renders the statement, looks its canonical text up and either
// adds the frequency to the entry found or appends an entry holding
// stmt, which it reports.
func (w *Workload) fold(stmt *SelectStmt, freq float64) (appended bool) {
	if freq <= 0 {
		freq = 1
	}
	if w.byText == nil || len(w.byText) != len(w.Queries) {
		w.byText = make(map[string]int, len(w.Queries)+1)
		for i, q := range w.Queries {
			text, _ := q.Canonical()
			if _, ok := w.byText[text]; !ok {
				w.byText[text] = i
			}
		}
	}
	var tb, fb [renderBuf]byte
	c := canon{text: tb[:0], fp: fb[:0]}.statement(stmt)
	if i, ok := w.byText[string(c.text)]; ok {
		w.Queries[i].Freq += freq
		return false
	}
	fp, ok := w.fingerprints[string(c.fp)]
	if !ok {
		if w.fingerprints == nil {
			w.fingerprints = make(map[string]string)
		}
		fp = string(c.fp)
		w.fingerprints[fp] = fp
	}
	text := string(c.text)
	w.byText[text] = len(w.Queries)
	w.Queries = append(w.Queries, WorkloadQuery{Stmt: stmt, Freq: freq, Text: text, Fingerprint: fp})
	return true
}

// Len returns the number of (distinct) workload entries.
func (w *Workload) Len() int { return len(w.Queries) }

// TotalFreq returns the summed statement frequency — the number of
// statements the workload represents, counting folded duplicates.
func (w *Workload) TotalFreq() float64 {
	var sum float64
	for _, q := range w.Queries {
		sum += q.Freq
	}
	return sum
}

// TablesReferenced returns all tables any query touches, sorted.
func (w *Workload) TablesReferenced() []string {
	seen := make(map[string]bool)
	for _, q := range w.Queries {
		for _, t := range q.Stmt.TablesReferenced() {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Compress applies the paper's simplest workload compression (§3.5.3):
// syntactically identical queries collapse into one entry with summed
// frequency. Canonical String() rendering makes identity a string test.
func (w *Workload) Compress() *Workload {
	byText := make(map[string]int)
	out := &Workload{}
	for _, q := range w.Queries {
		text, _ := q.Canonical()
		if i, ok := byText[text]; ok {
			out.Queries[i].Freq += q.Freq
			continue
		}
		byText[text] = len(out.Queries)
		out.Queries = append(out.Queries, q)
	}
	return out
}

// TopK keeps the k most expensive queries by the supplied per-query
// cost function — the second compression technique from §3.5.3. The
// retained entries keep their original order.
func (w *Workload) TopK(k int, cost func(*SelectStmt) float64) *Workload {
	if k >= len(w.Queries) {
		cp := &Workload{Queries: append([]WorkloadQuery(nil), w.Queries...)}
		return cp
	}
	type scored struct {
		idx  int
		cost float64
	}
	all := make([]scored, len(w.Queries))
	for i, q := range w.Queries {
		all[i] = scored{idx: i, cost: cost(q.Stmt) * q.Freq}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].cost > all[j].cost })
	keep := make(map[int]bool, k)
	for i := 0; i < k; i++ {
		keep[all[i].idx] = true
	}
	out := &Workload{}
	for i, q := range w.Queries {
		if keep[i] {
			out.Queries = append(out.Queries, q)
		}
	}
	return out
}

// ParseWorkload reads a workload file: one query per line (blank lines
// and -- comments ignored), optionally prefixed by "<freq>|". Queries
// are resolved against the schema.
//
// Every line is parsed, resolved and rendered once and folds on its
// canonical text like Add, so spelling differences (case, whitespace,
// prefix form) do not make separate entries; frequencies add in line
// order. One parser serves the whole log: a line is resolved and
// rendered in the parser's storage, and its statement is copied out
// only when it makes a new entry.
func ParseWorkload(r io.Reader, sc *catalog.Schema) (*Workload, error) {
	w := &Workload{}
	var p parser
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := bytes.TrimSpace(scanner.Bytes())
		if len(line) == 0 || bytes.HasPrefix(line, []byte("--")) {
			continue
		}
		freq := 1.0
		// A prefix that is not a finite positive number belongs to the
		// SQL: a statement may hold '|' inside a string literal.
		if i := bytes.IndexByte(line, '|'); i > 0 {
			if f, err := strconv.ParseFloat(string(bytes.TrimSpace(line[:i])), 64); err == nil && f > 0 && !math.IsInf(f, 1) {
				freq = f
				line = bytes.TrimSpace(line[i+1:])
			}
		}
		stmt, err := p.parseSelectStmt(string(line))
		if err != nil {
			return nil, fmt.Errorf("workload line %d: %w", lineNo, err)
		}
		if err := stmt.Resolve(sc); err != nil {
			return nil, fmt.Errorf("workload line %d: %w", lineNo, err)
		}
		if w.fold(stmt, freq) {
			w.Queries[len(w.Queries)-1].Stmt = stmt.clone()
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("workload line %d: %w", lineNo+1, err)
	}
	return w, nil
}

// WriteWorkload renders the workload in ParseWorkload's format.
func WriteWorkload(w io.Writer, wl *Workload) error {
	var line []byte
	for _, q := range wl.Queries {
		line = line[:0]
		if q.Freq != 1 {
			line = append(strconv.AppendFloat(line, q.Freq, 'g', -1, 64), '|')
		}
		text, _ := q.Canonical()
		line = append(append(line, text...), '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

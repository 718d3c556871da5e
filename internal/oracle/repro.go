package oracle

import (
	"bufio"
	"fmt"
	"sort"
	"strings"

	"indexmerge/internal/catalog"
	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/exec"
	"indexmerge/internal/optimizer"
	"indexmerge/internal/sql"
)

// Repro is a minimized, replayable witness for a correctness
// violation: a built-in database recipe, an index configuration and a
// single query. Replaying it rebuilds the database deterministically,
// materializes the configuration, and diffs the executed plan against
// the reference evaluator.
//
// The on-disk format is line-oriented plain text:
//
//	oracle repro v1
//	db tpcd scale=0.05 seed=1
//	index lineitem(l_okey,l_pkey)
//	index order(o_okey)
//	query SELECT ... FROM ... WHERE ...
//	# free-form comment lines are ignored
type Repro struct {
	DB     string
	Scale  float64
	Seed   int64
	Config [][2]string // table, comma-joined columns
	Query  string
}

// Marshal renders the repro file.
func (r *Repro) Marshal() []byte {
	var b strings.Builder
	b.WriteString("oracle repro v1\n")
	fmt.Fprintf(&b, "db %s scale=%g seed=%d\n", r.DB, r.Scale, r.Seed)
	for _, ix := range r.Config {
		fmt.Fprintf(&b, "index %s(%s)\n", ix[0], ix[1])
	}
	fmt.Fprintf(&b, "query %s\n", r.Query)
	return []byte(b.String())
}

// ParseRepro parses the repro file format.
func ParseRepro(data []byte) (*Repro, error) {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	r := &Repro{}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if first {
			if line != "oracle repro v1" {
				return nil, fmt.Errorf("oracle: not a repro file (header %q)", line)
			}
			first = false
			continue
		}
		switch {
		case strings.HasPrefix(line, "db "):
			fields := strings.Fields(line[3:])
			if len(fields) == 0 {
				return nil, fmt.Errorf("oracle: malformed db line %q", line)
			}
			r.DB = fields[0]
			r.Scale = 1
			for _, f := range fields[1:] {
				if _, err := fmt.Sscanf(f, "scale=%g", &r.Scale); err == nil {
					continue
				}
				if _, err := fmt.Sscanf(f, "seed=%d", &r.Seed); err == nil {
					continue
				}
				return nil, fmt.Errorf("oracle: malformed db attribute %q", f)
			}
		case strings.HasPrefix(line, "index "):
			spec := strings.TrimSpace(line[6:])
			open := strings.IndexByte(spec, '(')
			if open <= 0 || !strings.HasSuffix(spec, ")") {
				return nil, fmt.Errorf("oracle: malformed index line %q", line)
			}
			r.Config = append(r.Config, [2]string{spec[:open], spec[open+1 : len(spec)-1]})
		case strings.HasPrefix(line, "query "):
			r.Query = strings.TrimSpace(line[6:])
		default:
			return nil, fmt.Errorf("oracle: unrecognized repro line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if r.DB == "" || r.Query == "" {
		return nil, fmt.Errorf("oracle: repro missing db or query")
	}
	return r, nil
}

// Defs resolves the repro's index specs against a schema.
func (r *Repro) Defs(sc *catalog.Schema) ([]catalog.IndexDef, error) {
	var defs []catalog.IndexDef
	for _, ix := range r.Config {
		cols := strings.Split(ix[1], ",")
		for i := range cols {
			cols[i] = strings.TrimSpace(cols[i])
		}
		def, err := catalog.NewIndexDef(sc, "", ix[0], cols)
		if err != nil {
			return nil, fmt.Errorf("oracle: repro index %s(%s): %w", ix[0], ix[1], err)
		}
		defs = append(defs, def)
	}
	return defs, nil
}

// Check replays the repro: rebuild the database, materialize the
// configuration, run the query's optimized plan and diff it against
// the reference evaluator. A nil Violation means the repro no longer
// reproduces a divergence.
func (r *Repro) Check() (*Violation, error) {
	db, err := datagen.BuildNamed(r.DB, r.Scale, r.Seed)
	if err != nil {
		return nil, err
	}
	return r.checkAgainst(db)
}

func (r *Repro) checkAgainst(db *engine.Database) (*Violation, error) {
	stmt, err := sql.ParseSelect(r.Query)
	if err != nil {
		return nil, fmt.Errorf("oracle: repro query: %w", err)
	}
	if err := stmt.Resolve(db.Schema()); err != nil {
		return nil, fmt.Errorf("oracle: repro query: %w", err)
	}
	defs, err := r.Defs(db.Schema())
	if err != nil {
		return nil, err
	}
	ref, err := Reference(db, stmt)
	if err != nil {
		return nil, err
	}
	if err := db.Materialize(defs); err != nil {
		return nil, err
	}
	opz := optimizer.New(db)
	keys := configKeys(defs)
	plan, err := opz.Optimize(stmt, optimizer.Configuration(defs))
	if err != nil {
		return &Violation{Kind: "error", Query: r.Query, Config: keys,
			Detail: fmt.Sprintf("optimize: %v", err)}, nil
	}
	got, err := exec.Run(db, plan)
	if err != nil {
		return &Violation{Kind: "error", Query: r.Query, Config: keys,
			Detail: fmt.Sprintf("exec: %v\nplan:\n%s", err, plan.Explain())}, nil
	}
	if diff := DiffResults(ref, got); diff != "" {
		return &Violation{Kind: "result-diff", Query: r.Query, Config: keys,
			Detail: diff + "\nplan:\n" + plan.Explain()}, nil
	}
	if msg := checkOrdered(got, stmt.OrderBy); msg != "" {
		return &Violation{Kind: "order", Query: r.Query, Config: keys,
			Detail: msg + "\nplan:\n" + plan.Explain()}, nil
	}
	return nil, nil
}

// Minimize shrinks a reproducing repro by dropping configuration
// indexes one at a time while the violation persists (greedy delta
// debugging over the index set; the query is already a single
// statement). It returns the smallest still-reproducing repro; if the
// input does not reproduce, it is returned unchanged.
func Minimize(r *Repro) (*Repro, error) {
	db, err := datagen.BuildNamed(r.DB, r.Scale, r.Seed)
	if err != nil {
		return nil, err
	}
	v, err := r.checkAgainst(db)
	if err != nil || v == nil {
		return r, err
	}
	cur := *r
	for changed := true; changed; {
		changed = false
		for i := range cur.Config {
			cand := cur
			cand.Config = append(append([][2]string{}, cur.Config[:i]...), cur.Config[i+1:]...)
			v, err := cand.checkAgainst(db)
			if err != nil {
				return nil, err
			}
			if v != nil {
				cur = cand
				changed = true
				break
			}
		}
	}
	return &cur, nil
}

// NewRepro builds a repro from a violation found during a sweep. The
// violation's config keys ("table(a,b,c)") convert directly to index
// specs.
func NewRepro(dbName string, scale float64, seed int64, v Violation) *Repro {
	r := &Repro{DB: dbName, Scale: scale, Seed: seed, Query: v.Query}
	for _, key := range v.Config {
		open := strings.IndexByte(key, '(')
		if open <= 0 || !strings.HasSuffix(key, ")") {
			continue
		}
		r.Config = append(r.Config, [2]string{key[:open], key[open+1 : len(key)-1]})
	}
	sort.Slice(r.Config, func(i, j int) bool {
		if r.Config[i][0] != r.Config[j][0] {
			return r.Config[i][0] < r.Config[j][0]
		}
		return r.Config[i][1] < r.Config[j][1]
	})
	return r
}

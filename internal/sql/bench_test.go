package sql_test

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"indexmerge/internal/datagen"
	"indexmerge/internal/engine"
	"indexmerge/internal/sql"
	"indexmerge/internal/workload"
)

// benchLog is a query log and the database it was written against.
type benchLog struct {
	db       *engine.Database
	text     string
	lines    int
	distinct int // distinct lines
	stmts    []*sql.SelectStmt
}

// newBenchLog writes a log of the given number of lines over the first
// `distinct` statements workload.Generate yields from `shapes` query
// shapes: each distinct statement once, then uniformly drawn repeats.
func newBenchLog(tb testing.TB, shapes, distinct, lines int) *benchLog {
	tb.Helper()
	db, err := datagen.BuildNamed("synthetic2", 0.05, 1)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := workload.Generate(db, workload.Options{
		Class: workload.Complex, Queries: shapes, Seed: 7, Disjunctions: true, Duplication: 4 * (distinct - shapes),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if w.Len() < distinct {
		tb.Fatalf("generated %d distinct statements, want %d", w.Len(), distinct)
	}
	l := &benchLog{db: db, lines: lines, distinct: distinct}
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < lines; i++ {
		q := w.Queries[i%distinct]
		if i >= distinct {
			q = w.Queries[rng.Intn(distinct)]
		}
		b.WriteString(q.Stmt.String())
		b.WriteByte('\n')
	}
	l.text = b.String()
	for _, q := range w.Queries[:distinct] {
		l.stmts = append(l.stmts, q.Stmt)
	}
	return l
}

// BenchmarkParseWorkload times log text to workload entries on the two
// ends of the repetition range: a log that repeats its statements 16
// times over and one in which every line is its own query shape.
func BenchmarkParseWorkload(b *testing.B) {
	for _, c := range []struct {
		name                    string
		shapes, distinct, lines int
	}{
		{"repeated", 60, 1250, 20000},
		{"distinct", 300, 300, 300},
	} {
		b.Run(c.name, func(b *testing.B) {
			l := newBenchLog(b, c.shapes, c.distinct, c.lines)
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := sql.ParseWorkload(strings.NewReader(l.text), l.db.Schema())
				if err != nil {
					b.Fatal(err)
				}
				if w.Len() != l.distinct {
					b.Fatalf("%d entries, want %d", w.Len(), l.distinct)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			lines := float64(b.N * l.lines)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/lines, "ns/line")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/lines, "allocs/line")
		})
	}
}

// BenchmarkLex times the lexer alone on 300 statements of 300 shapes.
func BenchmarkLex(b *testing.B) {
	l := newBenchLog(b, 300, 300, 300)
	srcs := strings.Split(strings.TrimSpace(l.text), "\n")
	b.ReportAllocs()
	b.ResetTimer()
	tokens := 0
	for i := 0; i < b.N; i++ {
		n, err := sql.LexCount(srcs[i%len(srcs)])
		if err != nil {
			b.Fatal(err)
		}
		tokens += n
	}
	b.ReportMetric(float64(tokens)/float64(b.N), "tokens/op")
}

// BenchmarkRender times the one-pass render of canonical text and
// fingerprint on the same statements.
func BenchmarkRender(b *testing.B) {
	l := newBenchLog(b, 300, 300, 300)
	b.ReportAllocs()
	b.ResetTimer()
	rendered := 0
	for i := 0; i < b.N; i++ {
		text, fp := l.stmts[i%len(l.stmts)].Canonical()
		rendered += len(text) + len(fp)
	}
	b.ReportMetric(float64(rendered)/float64(b.N), "chars/op")
}

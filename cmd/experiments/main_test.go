package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestOutputIsTheCheckedInOne: experiments_output.txt is the program's
// output with default flags, verbatim. The program is deterministic but
// for Figure 6's three timing cells per row, which mask hides on both
// sides.
func TestOutputIsTheCheckedInOne(t *testing.T) {
	if raceEnabled {
		t.Skip("the full harness under the race detector takes minutes; the test runs without it")
	}
	want, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, nil); err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(mask(string(want)), "\n")
	gotLines := strings.Split(mask(got.String()), "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("line %d differs from experiments_output.txt (masked):\nwant %q\ngot  %q", i+1, w, g)
		}
	}
}

// maskedFirst is the first field of a Figure 6 line mask leaves alone:
// the title, the header and the rule.
var maskedFirst = regexp.MustCompile(`^(Figure|Database|-+)$`)

// mask replaces the timing cells of Figure 6 — fields 2 to 4 of each
// row from its title to the next blank line — with "~", rejoining a
// masked row's fields with single spaces. It is
//
//	awk '/^Figure 6 /{fig6=1} /^$/{fig6=0} fig6 && $1 !~ /^(Figure|Database|-+)$/ {$2=$3=$4="~"} {print}'
func mask(text string) string {
	var b strings.Builder
	fig6 := false
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue // after the final newline
		}
		body := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(body, "Figure 6 ") {
			fig6 = true
		}
		if body == "" {
			fig6 = false
		}
		fields := strings.Fields(body)
		first := ""
		if len(fields) > 0 {
			first = fields[0]
		}
		if fig6 && !maskedFirst.MatchString(first) {
			for len(fields) < 4 {
				fields = append(fields, "")
			}
			fields[1], fields[2], fields[3] = "~", "~", "~"
			body = strings.Join(fields, " ")
		}
		b.WriteString(body)
		b.WriteString("\n")
	}
	return b.String()
}

// TestMaskHidesFigure6Timings pins mask to the awk line it ports.
func TestMaskHidesFigure6Timings(t *testing.T) {
	in := "Figure 5 — x\n  TPC-D  1  2  3  4\n\nFigure 6 — y\n  Database  a  b  c  d\n  --------  -  -  -  -\n  TPC-D       11.0%            1.3%              2ms              7          62  \n\n  TPC-D  1  2  3  4\n"
	want := "Figure 5 — x\n  TPC-D  1  2  3  4\n\nFigure 6 — y\n  Database  a  b  c  d\n  --------  -  -  -  -\nTPC-D ~ ~ ~ 7 62\n\n  TPC-D  1  2  3  4\n"
	if got := mask(in); got != want {
		t.Errorf("mask:\n%s\nwant:\n%s", got, want)
	}
}

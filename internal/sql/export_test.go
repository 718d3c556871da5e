package sql

// LexCount tokenizes src and reports how many tokens it holds, for the
// benchmarks and tests of package sql_test.
func LexCount(src string) (int, error) {
	toks, err := lex(src, nil)
	return len(toks), err
}

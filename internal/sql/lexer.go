package sql

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

// token is 24 bytes: pos, which only error messages read, is held in
// 32 bits.
type token struct {
	text string
	pos  int32
	kind tokenKind
}

// lexer tokenizes a SQL string. Keywords are returned as tokIdent; the
// parser matches them case-insensitively. Identifiers are ASCII; bytes
// above 0x7F pass through string literals and comments untouched and
// are an error anywhere else. Token text is sliced out of src wherever
// the two agree, so lexing allocates the token slice and little more.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src into buf's storage, which it allocates only when
// buf is too small to be likely to hold every token.
func lex(src string, buf []token) ([]token, error) {
	// Generated statements hold a token per 2.4 to 6.8 source bytes
	// (medians: synthetic1 2.7, synthetic2 3.0 to 3.6, TPC-D 4.6), so
	// half the length spares all of them a second allocation.
	if cap(buf) < len(src)/2+2 {
		buf = make([]token, 0, len(src)/2+2)
	}
	l := &lexer{src: src, toks: buf[:0]}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, l.pos, l.pos)
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.lexIdent()
		case isDigit(c) || (c == '-' && isDigit(l.peekAt(1))):
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '*' || c == '=':
			l.emit(tokSymbol, l.pos, l.pos+1)
		case c == '<' && (l.peekAt(1) == '=' || l.peekAt(1) == '>'), c == '>' && l.peekAt(1) == '=':
			l.emit(tokSymbol, l.pos, l.pos+2)
		case c == '<' || c == '>':
			l.emit(tokSymbol, l.pos, l.pos+1)
		case c == '!' && l.peekAt(1) == '=':
			l.toks = append(l.toks, token{kind: tokSymbol, text: "<>", pos: int32(l.pos)})
			l.pos += 2
		case c >= utf8.RuneSelf:
			r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
			return nil, fmt.Errorf("sql: non-ASCII character %q at offset %d outside a string literal", r, l.pos)
		default:
			return nil, fmt.Errorf("sql: unexpected %q at offset %d", c, l.pos)
		}
	}
}

// emit appends src[start:end] as one token and moves past it.
func (l *lexer) emit(kind tokenKind, start, end int) {
	l.toks = append(l.toks, token{kind: kind, text: l.src[start:end], pos: int32(start)})
	l.pos = end
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.peekAt(1) == '-' {
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		return
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func (l *lexer) lexIdent() {
	end := l.pos
	for end < len(l.src) && (isIdentStart(l.src[end]) || isDigit(l.src[end])) {
		end++
	}
	l.emit(tokIdent, l.pos, end)
}

func (l *lexer) lexNumber() {
	end := l.pos
	if l.src[end] == '-' {
		end++
	}
	seenDot := false
	for end < len(l.src) {
		c := l.src[end]
		if isDigit(c) {
			end++
			continue
		}
		if c == '.' && !seenDot && end+1 < len(l.src) && isDigit(l.src[end+1]) {
			seenDot = true
			end++
			continue
		}
		break
	}
	l.emit(tokNumber, l.pos, end)
}

// lexString reads a quoted literal, in which a doubled quote stands
// for one quote.
func (l *lexer) lexString() error {
	start := l.pos
	escaped := false
	for end := start + 1; end < len(l.src); end++ {
		if l.src[end] != '\'' {
			continue
		}
		if end+1 < len(l.src) && l.src[end+1] == '\'' {
			escaped = true
			end++
			continue
		}
		text := l.src[start+1 : end]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		l.toks = append(l.toks, token{kind: tokString, text: text, pos: int32(start)})
		l.pos = end + 1
		return nil
	}
	return fmt.Errorf("sql: unterminated string at offset %d", start)
}

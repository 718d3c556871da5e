// Package value defines the typed scalar values stored in tables and
// flowing through query plans, together with comparison and width
// accounting used by the storage engine and the optimizer's size
// estimation.
package value

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

const (
	// Null is the absence of a value. Null compares less than every
	// non-null value, matching common B+-tree collation behaviour.
	Null Kind = iota
	// Int is a 64-bit signed integer.
	Int
	// Float is a 64-bit IEEE-754 float.
	Float
	// String is a variable-length byte string.
	String
	// Date is a day count since an arbitrary epoch; stored like Int but
	// kept distinct so schemas read naturally and widths differ.
	Date
)

// String implements fmt.Stringer for Kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "NULL"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	case Date:
		return "DATE"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a dynamically typed scalar. The zero Value is Null.
//
// Value is a small value type: copy freely, compare with Compare.
type Value struct {
	kind Kind
	i    int64 // Int and Date payload
	f    float64
	s    string
}

// NewInt returns an Int value.
func NewInt(i int64) Value { return Value{kind: Int, i: i} }

// NewFloat returns a Float value.
func NewFloat(f float64) Value { return Value{kind: Float, f: f} }

// NewString returns a String value.
func NewString(s string) Value { return Value{kind: String, s: s} }

// NewDate returns a Date value holding a day number.
func NewDate(day int64) Value { return Value{kind: Date, i: day} }

// NewNull returns the Null value.
func NewNull() Value { return Value{} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is Null.
func (v Value) IsNull() bool { return v.kind == Null }

// Int returns the integer payload; valid for Int and Date values.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload, converting Int and Date payloads.
func (v Value) Float() float64 {
	switch v.kind {
	case Float:
		return v.f
	case Int, Date:
		return float64(v.i)
	}
	return 0
}

// Str returns the string payload; valid for String values.
func (v Value) Str() string { return v.s }

// Compare orders v against w: -1 if v < w, 0 if equal, +1 if v > w.
// Null sorts before everything. Numeric kinds (Int, Float, Date)
// compare with each other by numeric value; comparing a numeric kind
// with String falls back to kind ordering so that the total order is
// still well defined.
func (v Value) Compare(w Value) int {
	if v.kind == Null || w.kind == Null {
		switch {
		case v.kind == Null && w.kind == Null:
			return 0
		case v.kind == Null:
			return -1
		default:
			return 1
		}
	}
	vn, wn := v.isNumeric(), w.isNumeric()
	switch {
	case vn && wn:
		a, b := v.Float(), w.Float()
		// Use exact integer comparison when both sides are integral to
		// avoid float rounding at large magnitudes.
		if v.kind != Float && w.kind != Float {
			switch {
			case v.i < w.i:
				return -1
			case v.i > w.i:
				return 1
			}
			return 0
		}
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case !vn && !wn:
		return strings.Compare(v.s, w.s)
	case vn:
		return -1 // numerics sort before strings across kinds
	default:
		return 1
	}
}

func (v Value) isNumeric() bool {
	return v.kind == Int || v.kind == Float || v.kind == Date
}

// Equal reports whether v and w compare equal.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// String renders the value as SQL-ish text.
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendString(buf[:0]))
}

// AppendString appends what String returns to b — the form the
// statement renderer uses so a literal costs no string of its own.
func (v Value) AppendString(b []byte) []byte {
	switch v.kind {
	case Null:
		return append(b, "NULL"...)
	case Int:
		return strconv.AppendInt(b, v.i, 10)
	case Float:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	case String:
		b = append(b, '\'')
		for i := 0; i < len(v.s); i++ {
			if v.s[i] == '\'' {
				b = append(b, '\'')
			}
			b = append(b, v.s[i])
		}
		return append(b, '\'')
	case Date:
		b = append(b, "DATE("...)
		b = strconv.AppendInt(b, v.i, 10)
		return append(b, ')')
	}
	return append(b, '?')
}

// Row is a tuple of values aligned with a table's column order.
type Row []Value

// Clone returns a deep copy of the row (values are immutable, so a
// shallow copy of the slice suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Key is an ordered tuple of values used as a B+-tree key.
type Key []Value

// Compare orders two keys lexicographically. A shorter key that is a
// prefix of a longer one sorts first, which gives B+-tree range scans
// natural prefix semantics.
func (k Key) Compare(o Key) int {
	n := len(k)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := k[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(k) < len(o):
		return -1
	case len(k) > len(o):
		return 1
	}
	return 0
}

// String renders the key for debugging.
func (k Key) String() string {
	parts := make([]string, len(k))
	for i, v := range k {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

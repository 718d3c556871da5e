package value

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Null: "NULL", Int: "INT", Float: "FLOAT", String: "STRING", Date: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind rendered %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Kind() != Int || v.Int() != 42 {
		t.Errorf("NewInt: %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != Float || v.Float() != 2.5 {
		t.Errorf("NewFloat: %v", v)
	}
	if v := NewString("abc"); v.Kind() != String || v.Str() != "abc" {
		t.Errorf("NewString: %v", v)
	}
	if v := NewDate(100); v.Kind() != Date || v.Int() != 100 {
		t.Errorf("NewDate: %v", v)
	}
	if v := NewNull(); !v.IsNull() {
		t.Errorf("NewNull not null: %v", v)
	}
	if NewInt(7).IsNull() {
		t.Error("NewInt(7).IsNull() = true")
	}
}

func TestFloatConversion(t *testing.T) {
	if got := NewInt(3).Float(); got != 3.0 {
		t.Errorf("Int→Float = %v", got)
	}
	if got := NewDate(10).Float(); got != 10.0 {
		t.Errorf("Date→Float = %v", got)
	}
	if got := NewString("x").Float(); got != 0 {
		t.Errorf("String→Float = %v, want 0", got)
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewInt(2), NewFloat(2.0), 0},  // cross numeric kinds
		{NewDate(5), NewInt(5), 0},     // date compares numerically
		{NewFloat(1.9), NewInt(2), -1}, // float vs int
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewNull(), NewInt(0), -1}, // null sorts first
		{NewInt(0), NewNull(), 1},
		{NewNull(), NewNull(), 0},
		{NewInt(1), NewString("a"), -1}, // numerics before strings
		{NewString("a"), NewInt(1), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareLargeIntegersExact(t *testing.T) {
	// Values this large lose precision as float64; integer compare must
	// stay exact.
	a := NewInt(1 << 60)
	b := NewInt(1<<60 + 1)
	if got := a.Compare(b); got != -1 {
		t.Errorf("large int compare = %d, want -1", got)
	}
}

func TestEqual(t *testing.T) {
	if !NewInt(5).Equal(NewFloat(5)) {
		t.Error("5 != 5.0")
	}
	if NewString("a").Equal(NewString("b")) {
		t.Error("'a' == 'b'")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewNull(), "NULL"},
		{NewInt(-3), "-3"},
		{NewFloat(2.5), "2.5"},
		{NewString("it's"), "'it''s'"},
		{NewDate(123), "DATE(123)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int() != 1 {
		t.Error("Clone aliases the original row")
	}
}

func TestKeyCompare(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{Key{NewInt(1)}, Key{NewInt(1)}, 0},
		{Key{NewInt(1)}, Key{NewInt(2)}, -1},
		{Key{NewInt(1), NewInt(2)}, Key{NewInt(1)}, 1},  // longer sorts after its prefix
		{Key{NewInt(1)}, Key{NewInt(1), NewInt(0)}, -1}, // prefix sorts first
		{Key{NewInt(1), NewInt(2)}, Key{NewInt(1), NewInt(3)}, -1},
		{Key{}, Key{}, 0},
		{Key{}, Key{NewInt(0)}, -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Key %v vs %v = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestKeyString(t *testing.T) {
	k := Key{NewInt(1), NewString("x")}
	if got := k.String(); got != "(1, 'x')" {
		t.Errorf("Key.String() = %q", got)
	}
}

// randomValue draws a random typed value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return NewNull()
	case 1:
		return NewInt(r.Int63n(1000) - 500)
	case 2:
		return NewFloat(float64(r.Int63n(1000)-500) / 4)
	case 3:
		return NewDate(r.Int63n(1000))
	default:
		return NewString(string(rune('a' + r.Intn(26))))
	}
}

// Generate implements quick.Generator.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomValue(r))
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b Value) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompareReflexivityProperty(t *testing.T) {
	f := func(a Value) bool { return a.Compare(a) == 0 }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c Value) bool {
		// If a<=b and b<=c then a<=c.
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestKeyCompareLexicographicProperty(t *testing.T) {
	f := func(a, b Value, rest Value) bool {
		// Keys sharing a first element order by the remainder.
		k1 := Key{a, b}
		k2 := Key{a, rest}
		return k1.Compare(k2) == b.Compare(rest)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

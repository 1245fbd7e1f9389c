package relstore

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueLayoutPinned pins the size of a Value, which every stored
// row pays once per column, and the kind numbers, which are the row
// codec's kind bytes in every snapshot on disk.
func TestValueLayoutPinned(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 40", got)
	}
	for _, c := range []struct {
		k    Kind
		want uint8
	}{{KNull, 0}, {KInt, 1}, {KFloat, 2}, {KString, 3}, {KBool, 5}} {
		if uint8(c.k) != c.want {
			t.Errorf("%s = %d, want %d", c.k, uint8(c.k), c.want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null(), KNull, ""},
		{Int(42), KInt, "42"},
		{Int(0), KInt, "0"},
		{Int(-7), KInt, "-7"},
		{Float(2.5), KFloat, "2.5"},
		{Float(0), KFloat, "0"},
		{Str("hello"), KString, "hello"},
		{Str(""), KString, ""},
		{Bool(true), KBool, "true"},
		{Bool(false), KBool, "false"},
	}
	for _, c := range cases {
		if c.v.K != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.K, c.kind)
		}
		if got := c.v.AsString(); got != c.str {
			t.Errorf("%v: AsString = %q, want %q", c.v, got, c.str)
		}
	}
}

func TestValueAsFloat(t *testing.T) {
	if f, ok := Int(9).AsFloat(); !ok || f != 9 {
		t.Errorf("Int(9).AsFloat = %g, %v", f, ok)
	}
	if f, ok := Bool(true).AsFloat(); !ok || f != 1 {
		t.Errorf("Bool(true).AsFloat = %g, %v", f, ok)
	}
	if _, ok := Str("abc").AsFloat(); ok {
		t.Error("Str(abc).AsFloat should fail")
	}
	if f, ok := Str("2.5").AsFloat(); !ok || f != 2.5 {
		t.Errorf("Str(2.5).AsFloat = %g, %v", f, ok)
	}
	if _, ok := Null().AsFloat(); ok {
		t.Error("Null().AsFloat should fail")
	}
}

func TestCompareTotalOrderAcrossKinds(t *testing.T) {
	// NULL < bool < numbers < string.
	ordered := []Value{
		Null(), Bool(false), Bool(true),
		Float(math.Inf(-1)), Int(-5), Float(-1.5), Int(0), Float(0.5),
		Int(1), Int(2), Float(math.Inf(1)),
		Str(""), Str("a"), Str("ab"), Str("b"),
	}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareIntFloatMixed(t *testing.T) {
	if Compare(Int(3), Float(3.0)) != 0 {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Compare(Int(3), Float(3.5)) != -1 {
		t.Error("Int(3) should sort below Float(3.5)")
	}
	if Compare(Float(2.9), Int(3)) != -1 {
		t.Error("Float(2.9) should sort below Int(3)")
	}
	// NaN sorts first among numbers and equals itself.
	if Compare(Float(math.NaN()), Float(math.NaN())) != 0 {
		t.Error("NaN should equal NaN in the total order")
	}
	if Compare(Float(math.NaN()), Float(math.Inf(-1))) != -1 {
		t.Error("NaN should sort before -Inf")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64, fa, fb float64, sa, sb string) bool {
		vals := []Value{Int(a), Int(b), Float(fa), Float(fb), Str(sa), Str(sb), Null()}
		for _, x := range vals {
			for _, y := range vals {
				if Compare(x, y) != -Compare(y, x) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c int64, fa, fb, fc float64) bool {
		vals := []Value{Int(a), Float(fb), Int(c), Float(fa), Int(b), Float(fc)}
		for _, x := range vals {
			for _, y := range vals {
				for _, z := range vals {
					if Compare(x, y) <= 0 && Compare(y, z) <= 0 && Compare(x, z) > 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCloneRowIndependence(t *testing.T) {
	r := Row{Int(1), Str("x")}
	c := CloneRow(r)
	c[0] = Int(2)
	if r[0].I != 1 {
		t.Error("CloneRow should not alias the original")
	}
}

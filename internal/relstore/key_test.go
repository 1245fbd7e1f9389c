package relstore

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// keyOrderMatches checks that the encoded-key order of a and b matches
// Compare(a, b).
func keyOrderMatches(a, b Value) bool {
	ka, kb := EncodeKey(a), EncodeKey(b)
	return sign(bytes.Compare(ka, kb)) == sign(Compare(a, b))
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestKeyOrderSingleValues(t *testing.T) {
	vals := []Value{
		Null(), Bool(false), Bool(true),
		Float(math.Inf(-1)), Int(math.MinInt64 + 2), Int(-1000000), Float(-3.5),
		Int(-1), Float(math.Copysign(0, -1)), Int(0), Float(0.0), Float(1e-10), Int(1),
		Float(1.5), Int(2), Int(1000000), Float(1e300), Float(math.Inf(1)),
		Str(""), Str("\x00"), Str("\x00a"), Str("a"), Str("a\x00"), Str("ab"), Str("b"),
		Bytes(nil), Bytes([]byte{0}), Bytes([]byte{0, 0}), Bytes([]byte{1}),
	}
	for i, a := range vals {
		for j, b := range vals {
			if !keyOrderMatches(a, b) {
				t.Errorf("key order mismatch between vals[%d]=%v and vals[%d]=%v", i, a, j, b)
			}
		}
	}
}

func TestKeyOrderIntFloatEquality(t *testing.T) {
	// An int and the numerically equal float must encode identically so
	// hash and tree lookups agree with Compare.
	pairs := []int64{0, 1, -1, 42, -99, 1 << 40, -(1 << 40)}
	for _, i := range pairs {
		ki, kf := EncodeKey(Int(i)), EncodeKey(Float(float64(i)))
		if !bytes.Equal(ki, kf) {
			t.Errorf("Int(%d) and Float(%d) encode differently", i, i)
		}
	}
}

func TestKeyOrderProperty(t *testing.T) {
	f := func(a, b int64, fa, fb float64, sa, sb string) bool {
		// Stay clear of the 2^63 int/float boundary, where the codec's
		// int/float equality deliberately diverges from Compare (documented
		// in key.go).
		a, b = a%(1<<62), b%(1<<62)
		vals := []Value{Int(a), Int(b), Float(fa), Float(fb), Str(sa), Str(sb), Null(), Bool(a%2 == 0)}
		for _, x := range vals {
			for _, y := range vals {
				if !keyOrderMatches(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompositeKeyPrefixOrder(t *testing.T) {
	// A composite key must order by the first differing component, and a
	// strict prefix must sort before any extension.
	a := EncodeKey(Str("abc"), Int(1))
	b := EncodeKey(Str("abc"), Int(2))
	c := EncodeKey(Str("abd"), Int(0))
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Error("composite keys out of order")
	}
	// The string terminator must prevent "ab" + "c..." from colliding with
	// "abc" + "...".
	d := EncodeKey(Str("ab"), Str("c"))
	e := EncodeKey(Str("abc"), Str(""))
	if bytes.Equal(d, e) {
		t.Error("composite keys with shifted boundaries must differ")
	}
}

func TestCompositeKeyOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randVal := func() Value {
		switch rng.Intn(5) {
		case 0:
			return Int(rng.Int63n(1000) - 500)
		case 1:
			return Float(rng.NormFloat64())
		case 2:
			return Str(randString(rng, 6))
		case 3:
			return Null()
		default:
			return Bool(rng.Intn(2) == 0)
		}
	}
	cmpTuple := func(a, b []Value) int {
		for i := range a {
			if c := Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(3)
		ta := make([]Value, n)
		tb := make([]Value, n)
		for i := 0; i < n; i++ {
			ta[i], tb[i] = randVal(), randVal()
		}
		if sign(bytes.Compare(EncodeKey(ta...), EncodeKey(tb...))) != sign(cmpTuple(ta, tb)) {
			t.Fatalf("composite order mismatch: %v vs %v", ta, tb)
		}
	}
}

func randString(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen)
	b := make([]byte, n)
	for i := range b {
		// Include NUL bytes to exercise the escaping.
		b[i] = byte(rng.Intn(4))
		if rng.Intn(2) == 0 {
			b[i] = byte('a' + rng.Intn(26))
		}
	}
	return string(b)
}

func TestPrefixEnd(t *testing.T) {
	if got := prefixEnd([]byte{1, 2, 3}); !bytes.Equal(got, []byte{1, 2, 4}) {
		t.Errorf("prefixEnd(1,2,3) = %v", got)
	}
	if got := prefixEnd([]byte{1, 0xFF}); !bytes.Equal(got, []byte{2}) {
		t.Errorf("prefixEnd(1,FF) = %v", got)
	}
	if got := prefixEnd([]byte{0xFF, 0xFF}); got != nil {
		t.Errorf("prefixEnd(FF,FF) = %v, want nil", got)
	}
}

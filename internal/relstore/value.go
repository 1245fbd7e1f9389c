// Package relstore implements the embedded in-memory relational store that
// backs the hybrid metadata catalog. It provides typed tables, hash and
// B-tree indexes with index-only range probes, multi-version snapshots,
// row-page diffs between versions, and a binary row codec. Its one client
// is the catalog's Go code; there is no query language.
//
// The store stands in for the commercial RDBMS the myLEAD catalog ran on:
// the paper's contribution is how metadata maps onto relational set
// operations, and the catalog runs those operations over relstore's
// index probes with stdlib-only Go.
package relstore

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// Value kinds. KNull is the zero Kind so that a zero Value is SQL NULL.
const (
	KNull Kind = iota
	KInt
	KFloat
	KString
	KBytes
	KBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt:
		return "BIGINT"
	case KFloat:
		return "DOUBLE"
	case KString:
		return "TEXT"
	case KBytes:
		return "BLOB"
	case KBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a tagged union holding a single SQL value. The zero Value is
// NULL. Values are compared with Compare, which defines a total order used
// by indexes and ORDER BY: NULL < booleans < numbers < strings < blobs,
// with ints and floats compared numerically against each other.
type Value struct {
	K Kind
	I int64   // KInt; KBool stores 0 or 1 here
	F float64 // KFloat
	S string  // KString
	B []byte  // KBytes
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(i int64) Value { return Value{K: KInt, I: i} }

// Float wraps a float64.
func Float(f float64) Value { return Value{K: KFloat, F: f} }

// Str wraps a string.
func Str(s string) Value { return Value{K: KString, S: s} }

// Bytes wraps a byte slice. The slice is not copied.
func Bytes(b []byte) Value { return Value{K: KBytes, B: b} }

// Bool wraps a bool.
func Bool(b bool) Value {
	v := Value{K: KBool}
	if b {
		v.I = 1
	}
	return v
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KNull }

// AsInt returns the value as an int64, truncating floats and parsing
// numeric strings. ok is false when no numeric interpretation exists.
func (v Value) AsInt() (i int64, ok bool) {
	switch v.K {
	case KInt, KBool:
		return v.I, true
	case KFloat:
		return int64(v.F), true
	case KString:
		n, err := strconv.ParseInt(v.S, 10, 64)
		return n, err == nil
	}
	return 0, false
}

// AsFloat returns the value as a float64 when a numeric interpretation
// exists.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.K {
	case KInt, KBool:
		return float64(v.I), true
	case KFloat:
		return v.F, true
	case KString:
		n, err := strconv.ParseFloat(v.S, 64)
		return n, err == nil
	}
	return 0, false
}

// AsString renders the value as a string. NULL renders as the empty string.
func (v Value) AsString() string {
	switch v.K {
	case KNull:
		return ""
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KString:
		return v.S
	case KBytes:
		return string(v.B)
	case KBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	}
	return ""
}

// AsBool interprets the value as a truth value: NULL and zero values are
// false, everything else true.
func (v Value) AsBool() bool {
	switch v.K {
	case KNull:
		return false
	case KInt, KBool:
		return v.I != 0
	case KFloat:
		return v.F != 0
	case KString:
		return v.S != ""
	case KBytes:
		return len(v.B) > 0
	}
	return false
}

// String implements fmt.Stringer for debugging output.
func (v Value) String() string {
	if v.K == KNull {
		return "NULL"
	}
	if v.K == KString {
		return strconv.Quote(v.S)
	}
	return v.AsString()
}

// typeRank orders kinds for cross-type comparison. Ints and floats share a
// rank so they compare numerically.
func typeRank(k Kind) int {
	switch k {
	case KNull:
		return 0
	case KBool:
		return 1
	case KInt, KFloat:
		return 2
	case KString:
		return 3
	case KBytes:
		return 4
	}
	return 5
}

// Compare defines the engine's total order over values, returning -1, 0, or
// +1. NULL sorts before everything and equals only NULL.
func Compare(a, b Value) int {
	ra, rb := typeRank(a.K), typeRank(b.K)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.K {
	case KNull:
		return 0
	case KBool:
		return cmpInt(a.I, b.I)
	case KInt:
		if b.K == KInt {
			return cmpInt(a.I, b.I)
		}
		return cmpFloat(float64(a.I), b.F)
	case KFloat:
		if b.K == KInt {
			return cmpFloat(a.F, float64(b.I))
		}
		return cmpFloat(a.F, b.F)
	case KString:
		if a.S < b.S {
			return -1
		} else if a.S > b.S {
			return 1
		}
		return 0
	case KBytes:
		return cmpBytes(a.B, b.B)
	}
	return 0
}

// Equal reports whether a and b compare as equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// NaNs sort before all other floats and equal each other, keeping the
	// order total.
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	}
	return 1
}

func cmpBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

// Coerce converts v to kind k when a lossless-enough conversion exists;
// it returns an error otherwise. NULL coerces to any kind (staying NULL).
func Coerce(v Value, k Kind) (Value, error) {
	if v.K == KNull || v.K == k {
		return v, nil
	}
	switch k {
	case KInt:
		if i, ok := v.AsInt(); ok {
			return Int(i), nil
		}
	case KFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f), nil
		}
	case KString:
		return Str(v.AsString()), nil
	case KBytes:
		return Bytes([]byte(v.AsString())), nil
	case KBool:
		return Bool(v.AsBool()), nil
	}
	return Value{}, fmt.Errorf("relstore: cannot coerce %s value %s to %s", v.K, v, k)
}

// Row is a tuple of values. Rows returned by tables (Get, Scan) must be
// treated as read-only.
type Row []Value

// CloneRow returns a copy of r sharing string/byte backing storage.
func CloneRow(r Row) Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

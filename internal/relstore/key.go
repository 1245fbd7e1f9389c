package relstore

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Order-preserving key encoding. Composite keys built from Values encode to
// byte strings whose bytewise order matches the Compare order of the value
// tuples. B-tree indexes key on these encodings so a single byte comparison
// replaces a per-column Compare loop on the hot path.
//
// Layout per value: one tag byte (the comparison rank, so cross-type order
// is preserved), then a kind-specific payload:
//
//	NULL    tag only
//	BOOL    1 byte
//	INT     tag for number + marker byte 0x00 + big-endian uint64 with the
//	        sign bit flipped
//	FLOAT   tag for number + marker byte 0x00 + IEEE bits transformed so
//	        bytewise order equals numeric order
//	STRING  escaped bytes (0x00 -> 0x00 0xFF) terminated by 0x00 0x00
//
// Ints and floats share a tag and are both encoded through the float
// transform when they interact; to keep exact int ordering beyond 2^53 the
// int payload carries the original value after a float-ordered prefix.

const (
	tagNull   byte = 0x01
	tagBool   byte = 0x02
	tagNumber byte = 0x03
	tagString byte = 0x04
)

// numberKeyLen is the fixed encoded width of an INT or FLOAT: the tag,
// the float-ordered prefix, then the int payload (for an INT, the value
// itself with its sign bit flipped).
const numberKeyLen = 1 + 8 + 8

// AppendKey appends the order-preserving encoding of v to dst.
func AppendKey(dst []byte, v Value) []byte {
	switch v.K {
	case KNull:
		return append(dst, tagNull)
	case KBool:
		dst = append(dst, tagBool)
		if v.I != 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	case KInt:
		dst = append(dst, tagNumber)
		dst = appendFloatOrdered(dst, float64(v.I))
		// Disambiguate ints that collapse to the same float64 so exact
		// ordering and equality survive beyond 2^53.
		return appendUint64Ordered(dst, uint64(v.I)^(1<<63))
	case KFloat:
		dst = append(dst, tagNumber)
		dst = appendFloatOrdered(dst, v.F)
		// Pad so an int and an equal float encode identically in length;
		// the midpoint pad keeps float(x) sorting with int(x).
		return appendUint64Ordered(dst, floatIntPad(v.F))
	case KString:
		dst = append(dst, tagString)
		return appendEscaped(dst, v.S)
	}
	panic(fmt.Sprintf("relstore: AppendKey: unknown kind %d", v.K))
}

// floatIntPad returns the int-payload stand-in for a float so that when a
// float is numerically equal to an integer the two encodings are equal, and
// otherwise the float-ordered prefix already decided the comparison.
func floatIntPad(f float64) uint64 {
	if f == math.Trunc(f) && f >= -9.2233720368547758e18 && f <= 9.2233720368547758e18 {
		return uint64(int64(f)) ^ (1 << 63)
	}
	return 1 << 63
}

func appendUint64Ordered(dst []byte, u uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], u)
	return append(dst, buf[:]...)
}

// appendFloatOrdered writes f as 8 bytes whose bytewise order matches the
// cmpFloat order (NaN first, then -Inf .. +Inf).
func appendFloatOrdered(dst []byte, f float64) []byte {
	if math.IsNaN(f) {
		return appendUint64Ordered(dst, 0)
	}
	if f == 0 {
		f = 0 // -0 compares equal to 0, so it must encode the same
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative: flip all bits
	} else {
		bits ^= 1 << 63 // positive: flip sign bit
	}
	// Reserve 0 for NaN by nudging everything up; the max value cannot
	// overflow because ^(-0.0) leaves headroom at the top.
	return appendUint64Ordered(dst, bits+1)
}

// appendEscaped writes s with 0x00 escaped as 0x00 0xFF and a 0x00 0x00
// terminator, preserving prefix ordering across variable-length keys.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// EncodeKey encodes a composite key from vals.
func EncodeKey(vals ...Value) []byte {
	var dst []byte
	for _, v := range vals {
		dst = AppendKey(dst, v)
	}
	return dst
}

// rowIDSuffixLen is the width of the row-ID suffix that keeps a
// non-unique index's entries distinct.
const rowIDSuffixLen = 8

// appendEntryKey appends row's entry key in ix to dst — the indexed
// columns, then for a non-unique index the row ID — and reports whether
// the row has an entry: a row with a NULL in an indexed column has none.
func appendEntryKey(dst []byte, ix *Index, row Row, rowID int64) ([]byte, bool) {
	n := len(dst)
	for _, c := range ix.cols {
		if row[c].IsNull() {
			return dst[:n], false
		}
		dst = AppendKey(dst, row[c])
	}
	if !ix.Unique {
		dst = binary.BigEndian.AppendUint64(dst, uint64(rowID))
	}
	return dst, true
}

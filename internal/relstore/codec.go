package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Row codec: the binary form rows take in checkpoint snapshots. A row is
// a uvarint column count followed, per value, by its kind byte and a
// body:
//
//	0 KNull        no body
//	1 KInt         zigzag varint of I
//	2 KFloat       8 little-endian bytes of math.Float64bits(F)
//	3 KString      uvarint length, then the bytes
//	5 KBool        zigzag varint of I
//
// Kind byte 4 was a BLOB kind that no column ever had; it is retired and
// refused like any unknown kind, so snapshots written before its removal
// decode unchanged. Floats travel as raw bits, so NaN payloads and
// negative zero survive bit-exactly and a loaded snapshot holds exactly
// the saved rows. Decoded strings are copies: a row never aliases the
// buffer it came from.

// errShortRow reports a row encoding cut off before its end.
var errShortRow = errors.New("relstore: row codec: short input")

// AppendRow appends the encoding of r to dst and returns the extended
// slice.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.K))
		switch v.K {
		case KNull:
		case KInt, KBool:
			dst = binary.AppendVarint(dst, v.I)
		case KFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case KString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		default:
			panic(fmt.Sprintf("relstore: AppendRow: value of unknown kind %d", v.K))
		}
	}
	return dst
}

// ReadRow decodes one row from the front of src and returns it with the
// bytes after it. The row reuses dst's backing array when it has room —
// Table.Insert copies the rows it stores, so a bulk loader can decode
// every row into one scratch row instead of leaving a garbage row behind
// each live one. Malformed input — an unknown kind, a short body, a
// count or length larger than the bytes that remain — returns an error,
// never a panic; since every value takes at least its kind byte, a
// corrupt column count cannot drive an allocation beyond a fixed
// multiple of len(src).
func ReadRow(dst Row, src []byte) (Row, []byte, error) {
	n, src, err := readUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(src)) {
		return nil, nil, fmt.Errorf("relstore: row codec: %d columns in %d bytes", n, len(src))
	}
	r := dst[:0]
	if r == nil || uint64(cap(r)) < n {
		r = make(Row, 0, n)
	}
	r = r[:n]
	for i := range r {
		if len(src) == 0 {
			return nil, nil, errShortRow
		}
		k := Kind(src[0])
		src = src[1:]
		switch k {
		case KNull:
			r[i] = Value{}
		case KInt, KBool:
			x, m := binary.Varint(src)
			if m <= 0 {
				return nil, nil, errShortRow
			}
			r[i] = Value{K: k, I: x}
			src = src[m:]
		case KFloat:
			if len(src) < 8 {
				return nil, nil, errShortRow
			}
			r[i] = Value{K: k, F: math.Float64frombits(binary.LittleEndian.Uint64(src))}
			src = src[8:]
		case KString:
			var s string
			if s, src, err = readString(src); err != nil {
				return nil, nil, err
			}
			r[i] = Value{K: k, S: s}
		default:
			return nil, nil, fmt.Errorf("relstore: row codec: unknown kind %d", k)
		}
	}
	return r, src, nil
}

// readUvarint decodes a uvarint from the front of src.
func readUvarint(src []byte) (uint64, []byte, error) {
	x, m := binary.Uvarint(src)
	if m <= 0 {
		return 0, nil, errShortRow
	}
	return x, src[m:], nil
}

// readString decodes a uvarint-length-prefixed string from the front of
// src, copying its bytes.
func readString(src []byte) (string, []byte, error) {
	n, src, err := readUvarint(src)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(src)) {
		return "", nil, fmt.Errorf("relstore: row codec: length %d with %d bytes left", n, len(src))
	}
	return string(src[:n]), src[n:], nil
}

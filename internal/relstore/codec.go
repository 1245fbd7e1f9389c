package relstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Row codec: the binary form rows take in checkpoint snapshots. A row is a uvarint column count followed, per
// value, by its kind byte and a body:
//
//	KNull            no body
//	KInt, KBool      zigzag varint of I
//	KFloat           8 little-endian bytes of math.Float64bits(F)
//	KString, KBytes  uvarint length, then the bytes
//
// Floats travel as raw bits, so NaN payloads and negative zero survive
// bit-exactly and a loaded snapshot holds exactly the saved rows.
// Decoded bytes and strings are copies: a row never aliases the buffer
// it came from.

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
		case KBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.B)))
			dst = append(dst, v.B...)
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
// multiple of len(src). A zero-length KBytes value decodes as nil.
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
		case KString, KBytes:
			var b []byte
			if b, src, err = readBytes(src); err != nil {
				return nil, nil, err
			}
			if k == KString {
				r[i] = Value{K: k, S: string(b)}
			} else {
				r[i] = Value{K: k, B: bytes.Clone(b)}
			}
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

// readBytes decodes a uvarint-length-prefixed byte string from the
// front of src; the result aliases src, and is nil when empty.
func readBytes(src []byte) ([]byte, []byte, error) {
	n, src, err := readUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(src)) {
		return nil, nil, fmt.Errorf("relstore: row codec: length %d with %d bytes left", n, len(src))
	}
	if n == 0 {
		return nil, src, nil
	}
	return src[:n], src[n:], nil
}

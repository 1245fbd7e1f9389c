package relstore

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// codecSeedRows cover every kind and the values a lossy codec would
// bend: integer extremes, a NaN with payload bits, negative zero, empty
// strings, and strings holding NUL, 0xff bytes and invalid UTF-8.
var codecSeedRows = []Row{
	{},
	{Null()},
	{Int(0), Int(-1), Int(math.MinInt64), Int(math.MaxInt64)},
	{Bool(true), Bool(false)},
	{Float(math.Float64frombits(0x7ff8_0000_dead_beef)), Float(math.Copysign(0, -1)), Float(math.Inf(-1)), Float(2.5)},
	{Str(""), Str("a\x00b"), Str("\xff\xfe not utf-8"), Str("ünïcödé")},
	{Str(""), Str("\x00"), Str("\x00\x01\x02\xff")},
	{Int(7), Null(), Str("mixed"), Float(1e300), Str("x"), Bool(true)},
}

// identicalRows is exact row equality: kind-sensitive and bit-exact for
// floats.
func identicalRows(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		av, bv := a[i], b[i]
		if av.K != bv.K || av.I != bv.I || av.S != bv.S ||
			math.Float64bits(av.F) != math.Float64bits(bv.F) {
			return false
		}
	}
	return true
}

// allocatedBytes returns the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// maxDecodeAlloc bounds what decoding n input bytes may allocate: a
// 40-byte Value per kind byte at most, plus slack for size classes.
func maxDecodeAlloc(n int) uint64 { return 128*uint64(n) + 4096 }

// FuzzRowCodec checks the row codec on arbitrary bytes: ReadRow returns
// an error or a row, never panics, allocates a bounded multiple of its
// input, and any row it returns survives AppendRow → ReadRow exactly.
// The seeds are the encodings of codecSeedRows, whose round trip is
// checked first, plus malformed inputs.
func FuzzRowCodec(f *testing.F) {
	for _, r := range codecSeedRows {
		enc := AppendRow(nil, r)
		got, rest, err := ReadRow(nil, enc)
		if err != nil || len(rest) != 0 || !identicalRows(got, r) {
			f.Fatalf("round trip of %v: got %v, %d bytes left, err %v", r, got, len(rest), err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{1, byte(KBool) + 1})                        // unknown kind
	f.Add([]byte{1, byte(KFloat), 0, 0, 0})                  // short float
	f.Add([]byte{1, byte(KString), 0x80})                    // truncated length
	f.Add([]byte{1, byte(KString), 0x7f, 1})                 // length past the end
	f.Add([]byte{0xe8, 0x07, byte(KNull), byte(KNull)})      // 1000 columns in 2 bytes
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, byte(KNull)}) // 2^32-1 columns
	f.Add(retiredKindRow)                                    // the retired BLOB kind
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Row
		var err error
		if n := allocatedBytes(func() { r, _, err = ReadRow(nil, data) }); n > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		// Decode the re-encoding into a reused row holding stale values:
		// every value must be overwritten.
		stale := make(Row, len(r))
		for i := range stale {
			stale[i] = Value{K: KString, I: 1, F: 1, S: "stale"}
		}
		got, rest, err := ReadRow(stale, AppendRow(nil, r))
		if err != nil || len(rest) != 0 || !identicalRows(got, r) {
			t.Fatalf("re-encoded %v decodes as %v, %d bytes left, err %v", r, got, len(rest), err)
		}
	})
}

// retiredKindRow is a one-column row of kind byte 4, the retired BLOB
// kind, with the body that kind had: a uvarint length and the bytes.
var retiredKindRow = []byte{1, 4, 3, 'a', 'b', 'c'}

// TestReadRowRefusesRetiredKind: kind byte 4 decodes as an unknown kind,
// alone or after valid values, and never as a value.
func TestReadRowRefusesRetiredKind(t *testing.T) {
	after := AppendRow(nil, Row{Int(1), Str("x")})
	after[0] = 3 // a third column, the retired kind's, follows
	for _, in := range [][]byte{retiredKindRow, append(after, retiredKindRow[1:]...)} {
		r, _, err := ReadRow(nil, in)
		if err == nil || !strings.Contains(err.Error(), "unknown kind 4") {
			t.Errorf("ReadRow(% x) = %v, %v; want an unknown kind 4 error", in, r, err)
		}
	}
}

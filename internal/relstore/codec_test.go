package relstore

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// codecSeedRows cover every kind and the values a lossy codec would
// bend: integer extremes, a NaN with payload bits, negative zero, empty
// versus nil bytes, and strings holding NUL and invalid UTF-8.
var codecSeedRows = []Row{
	{},
	{Null()},
	{Int(0), Int(-1), Int(math.MinInt64), Int(math.MaxInt64)},
	{Bool(true), Bool(false)},
	{Float(math.Float64frombits(0x7ff8_0000_dead_beef)), Float(math.Copysign(0, -1)), Float(math.Inf(-1)), Float(2.5)},
	{Str(""), Str("a\x00b"), Str("\xff\xfe not utf-8"), Str("ünïcödé")},
	{Bytes(nil), Bytes([]byte{}), Bytes([]byte{0, 1, 2, 0xff})},
	{Int(7), Null(), Str("mixed"), Float(1e300), Bytes([]byte("x")), Bool(true)},
}

// identicalRows is exact row equality: kind-sensitive, bit-exact for
// floats, and an empty byte string equal to nil.
func identicalRows(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		av, bv := a[i], b[i]
		if av.K != bv.K || av.I != bv.I || av.S != bv.S ||
			math.Float64bits(av.F) != math.Float64bits(bv.F) ||
			!bytes.Equal(av.B, bv.B) {
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
// 64-byte Value per kind byte at most, plus slack for size classes.
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
		for _, v := range got {
			if v.K == KBytes && len(v.B) == 0 && v.B != nil {
				f.Fatalf("empty bytes decoded as non-nil in %v", got)
			}
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{1, byte(KBool) + 1})                        // unknown kind
	f.Add([]byte{1, byte(KFloat), 0, 0, 0})                  // short float
	f.Add([]byte{1, byte(KString), 0x80})                    // truncated length
	f.Add([]byte{1, byte(KBytes), 0x7f, 1})                  // length past the end
	f.Add([]byte{0xe8, 0x07, byte(KNull), byte(KNull)})      // 1000 columns in 2 bytes
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, byte(KNull)}) // 2^32-1 columns
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
			stale[i] = Value{K: KBytes, I: 1, F: 1, S: "stale", B: []byte("stale")}
		}
		got, rest, err := ReadRow(stale, AppendRow(nil, r))
		if err != nil || len(rest) != 0 || !identicalRows(got, r) {
			t.Fatalf("re-encoded %v decodes as %v, %d bytes left, err %v", r, got, len(rest), err)
		}
	})
}

package relstore

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/gridmeta/hybridcat/internal/obs"
)

// tailsFixture is a database with one table whose indexes end in NOT
// NULL INT columns, in every shape LookupRangeTails must decode.
type tailsFixture struct {
	db  *Database
	reg *obs.Registry
	rng *rand.Rand
	b   int64 // next b value; keeps uniq_ab's (a, b) pairs unique
}

// tailsIndexes lists each index with its column positions, so the row
// path can project the expected tail.
var tailsIndexes = []struct {
	name   string
	unique bool
	cols   []string
	pos    []int
}{
	{"by_s_ab", false, []string{"s", "a", "b"}, []int{0, 2, 3}},
	{"by_f_ab", false, []string{"f", "a", "b"}, []int{1, 2, 3}},
	{"by_a", false, []string{"a"}, []int{2}},
	{"uniq_ab", true, []string{"a", "b"}, []int{2, 3}},
}

// tailInts mixes negative values, values past 2^53 that collapse to one
// float64 (so only the key's int payload tells them apart), and the
// extremes.
var tailInts = []int64{
	math.MinInt64, -(1 << 62) - 3, -(1 << 53) - 1, -5, -1, 0, 1, 7,
	1<<53 + 1, 1<<53 + 2, 1 << 62, math.MaxInt64,
}

// tailStrings include 0x00 bytes, whose escaping shifts the key layout.
var tailStrings = []string{"", "\x00", "\x00\x00", "a", "a\x00b", "ab"}

func newTailsFixture(t *testing.T) *tailsFixture {
	t.Helper()
	f := &tailsFixture{db: NewDatabase(), reg: obs.NewRegistry(), rng: rand.New(rand.NewSource(11))}
	f.db.SetMetrics(f.reg)
	tab, err := f.db.CreateTable("t",
		Column{Name: "s", Type: KString, NotNull: true},
		Column{Name: "f", Type: KFloat},
		Column{Name: "a", Type: KInt, NotNull: true},
		Column{Name: "b", Type: KInt, NotNull: true},
		Column{Name: "c", Type: KInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range tailsIndexes {
		if _, err := tab.CreateIndex(ix.name, ix.unique, ix.cols...); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func (f *tailsFixture) row() Row {
	fv := Null()
	if f.rng.Intn(4) > 0 {
		fv = Float([]float64{-1.5, 0, 2.5}[f.rng.Intn(3)])
	}
	f.b += 1 + int64(f.rng.Intn(1<<20))
	b := f.b
	if f.rng.Intn(3) == 0 {
		b = -b
	}
	return Row{
		Str(tailStrings[f.rng.Intn(len(tailStrings))]), fv,
		Int(tailInts[f.rng.Intn(len(tailInts))]), Int(b), Null(),
	}
}

// bound draws a random prefix of the index's column values, taken from
// a live row so it lands inside the key space, or an unbounded end.
func (f *tailsFixture) bound(tab *Table, pos []int) RangeBound {
	if f.rng.Intn(5) == 0 {
		return RangeBound{}
	}
	var r Row
	for r == nil {
		r = tab.Get(int64(f.rng.Intn(int(tab.version().nrows))))
	}
	vals := make([]Value, 1+f.rng.Intn(len(pos)))
	for i := range vals {
		vals[i] = r[pos[i]]
	}
	return RangeBound{Vals: vals, Inclusive: f.rng.Intn(2) == 0, Set: true}
}

// checkTails compares LookupRangeTails with LookupRange + Get over many
// random bounds on every index of tab, in key order, and checks that
// the tail scan reads no row and counts one lookup.
func (f *tailsFixture) checkTails(t *testing.T, label string, tab *Table) {
	t.Helper()
	reads := f.reg.Counter("relstore_row_reads_total", obs.L("table", "t"))
	lookups := f.reg.Counter("relstore_index_lookups_total", obs.L("table", "t"))
	for _, ix := range tailsIndexes {
		for n := 1; n <= 2 && n <= len(ix.pos); n++ {
			tailPos := ix.pos[len(ix.pos)-n:]
			for trial := 0; trial < 60; trial++ {
				lo, hi := f.bound(tab, ix.pos), f.bound(tab, ix.pos)
				if trial == 0 {
					lo, hi = RangeBound{}, RangeBound{}
				}
				ids, err := tab.LookupRange(ix.name, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				var want [][]int64
				for _, id := range ids {
					r := tab.Get(id)
					tail := make([]int64, n)
					for i, p := range tailPos {
						tail[i] = r[p].I
					}
					want = append(want, tail)
				}
				beforeReads, beforeLookups := reads.Value(), lookups.Value()
				var got [][]int64
				err = tab.LookupRangeTails(ix.name, lo, hi, n, func(tail []int64) bool {
					got = append(got, slices.Clone(tail))
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if d := reads.Value() - beforeReads; d != 0 {
					t.Fatalf("%s %s: tail scan read %d rows", label, ix.name, d)
				}
				if d := lookups.Value() - beforeLookups; d != 1 {
					t.Fatalf("%s %s: tail scan counted %d lookups, want 1", label, ix.name, d)
				}
				if !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
					t.Fatalf("%s %s n=%d [%v, %v]: tails %v, row path %v", label, ix.name, n, lo, hi, got, want)
				}
			}
		}
	}
}

func TestLookupRangeTailsMatchesRowPath(t *testing.T) {
	f := newTailsFixture(t)
	live := f.db.MustTable("t")
	for i := 0; i < 400; i++ {
		r := f.row()
		if i%5 == 0 && i > 0 {
			// Duplicate the previous (s, f, a) so non-unique keys repeat.
			prev := live.Get(int64(i - 1))
			r[0], r[1], r[2] = prev[0], prev[1], prev[2]
		}
		if _, err := live.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	snap := f.db.Snapshot()
	pinned := snap.MustTable("t")
	var before [][]int64
	if err := pinned.LookupRangeTails("uniq_ab", RangeBound{}, RangeBound{}, 2, func(tail []int64) bool {
		before = append(before, slices.Clone(tail))
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// Delete, update and insert after the pin: the pinned handle must keep
	// answering from its own version.
	for i := 0; i < 400; i += 3 {
		if i%2 == 0 {
			live.Delete(int64(i))
			continue
		}
		if err := live.Update(int64(i), f.row()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := live.Insert(f.row()); err != nil {
			t.Fatal(err)
		}
	}

	f.checkTails(t, "pinned", pinned)
	f.checkTails(t, "live", live)
	var after [][]int64
	if err := pinned.LookupRangeTails("uniq_ab", RangeBound{}, RangeBound{}, 2, func(tail []int64) bool {
		after = append(after, slices.Clone(tail))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(before, after, slices.Equal[[]int64]) {
		t.Fatal("pinned tail scan changed after later writes")
	}

	// fn returning false stops the scan.
	calls := 0
	if err := live.LookupRangeTails("by_a", RangeBound{}, RangeBound{}, 1, func([]int64) bool {
		calls++
		return false
	}); err != nil || calls != 1 {
		t.Fatalf("early stop: %d calls, err %v", calls, err)
	}
}

func TestLookupRangeTailsRefusesNonIntTail(t *testing.T) {
	f := newTailsFixture(t)
	tab := f.db.MustTable("t")
	if _, err := tab.CreateIndex("by_a_c", false, "a", "c"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		index string
		n     int
		why   string
	}{
		{"by_a_c", 1, "nullable INT tail"},
		{"by_f_ab", 3, "FLOAT tail"},
		{"by_s_ab", 3, "STRING tail"},
		{"by_a", 0, "no tail"},
		{"by_a", 2, "tail wider than the index"},
		{"missing", 1, "unknown index"},
	} {
		err := tab.LookupRangeTails(bad.index, RangeBound{}, RangeBound{}, bad.n, func([]int64) bool {
			t.Fatalf("%s: fn called", bad.why)
			return false
		})
		if err == nil {
			t.Errorf("%s: LookupRangeTails(%s, n=%d) should fail", bad.why, bad.index, bad.n)
		}
	}
}

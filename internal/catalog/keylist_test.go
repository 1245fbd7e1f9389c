package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// TestBitmapObservability asserts the set pipeline feeds its instrument
// families: the per-criterion cardinality and intersect cardinality
// histograms, and the postings cache layer's traffic.
func TestBitmapObservability(t *testing.T) {
	reg := obs.NewRegistry()
	c := newLEADCatalog(t, Options{Metrics: reg})
	ingestFig3(t, c)
	q := &Query{}
	q.Attr("grid", "ARPS").AddElem("dx", "ARPS", relstore.OpGe, relstore.Int(0))
	q.Attr("theme", "").AddElem("themekt", "", relstore.OpEq, relstore.Str("CF NetCDF"))
	if _, err := c.Evaluate(q); err != nil {
		t.Fatal(err)
	}
	if reg.Histogram("query_criterion_rows").Count() == 0 {
		t.Error("query_criterion_rows never observed")
	}
	if reg.Histogram("query_intersect_cardinality").Count() == 0 {
		t.Error("query_intersect_cardinality never observed")
	}
	// The postings layer memoized the probes.
	if st := c.CacheStats(); st.Postings.Misses == 0 {
		t.Errorf("expected postings-layer traffic: %+v", st)
	}
}

// TestInstKeyRange pins the packing envelope: everything outside it
// is an error, never a silently wrong key.
func TestInstKeyRange(t *testing.T) {
	k, err := instKey(7, 3)
	if err != nil || k != 7<<instSeqBits|3 {
		t.Fatalf("instKey(7,3) = %d, %v", k, err)
	}
	if k, err := instKey(maxInstObject, instSeqMask); err != nil || k != uint64(maxInstObject)<<instSeqBits|instSeqMask {
		t.Fatalf("instKey(max) = %d, %v", k, err)
	}
	for _, bad := range [][2]int64{{-1, 0}, {0, -1}, {0, instSeqMask + 1}, {maxInstObject + 1, 0}} {
		if _, err := instKey(bad[0], bad[1]); err == nil {
			t.Errorf("instKey(%d,%d) packed an out-of-range pair", bad[0], bad[1])
		}
	}
}

// TestSeqBoundMatchesInstKey pins the ingest bound to the packing: an
// object whose theme ordinal is seeded (through a direct attr_data
// write) just below instSeqMask takes one more theme through
// AddAttribute, and that instance is queryable; the next is refused
// with a core.ValidationError before any row is written, and the
// catalog keeps ingesting ordinary documents.
func TestSeqBoundMatchesInstKey(t *testing.T) {
	c := newLEADCatalog(t, Options{})
	id := ingestFig3(t, c)
	theme := c.Reg.LookupAttr("theme", "", 0, "")
	// A direct row write (no mutation API journals one; see withTx).
	if err := c.withTx(func() error {
		_, err := c.wtab(TAttrData).Insert(relstore.Row{
			relstore.Int(id), relstore.Int(theme.ID), relstore.Int(instSeqMask - 1),
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	addTheme := func(kt string) error {
		frag, err := xmldoc.ParseString("<theme><themekt>" + kt + "</themekt></theme>")
		if err != nil {
			t.Fatal(err)
		}
		return c.AddAttribute(id, "scientist", frag)
	}
	themeQuery := func(kt string) []int64 {
		q := &Query{}
		q.Attr("theme", "").AddElem("themekt", "", relstore.OpEq, relstore.Str(kt))
		ids, err := c.Evaluate(q)
		if err != nil {
			t.Fatalf("themekt=%s: %v", kt, err)
		}
		return ids
	}

	if err := addTheme("on-the-bound"); err != nil {
		t.Fatalf("ordinal instSeqMask refused: %v", err)
	}
	if ids := themeQuery("on-the-bound"); len(ids) != 1 || ids[0] != id {
		t.Fatalf("instance at ordinal instSeqMask: ids = %v", ids)
	}

	rows := func() map[string]int {
		m := map[string]int{}
		for _, name := range c.DB.TableNames() {
			m[name] = c.DB.MustTable(name).Len()
		}
		return m
	}
	before := rows()
	err := addTheme("past-the-bound")
	var verr *core.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("ordinal instSeqMask+1: err = %v, want a core.ValidationError", err)
	}
	if after := rows(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refused AddAttribute wrote rows: %v -> %v", before, after)
	}
	if ids := themeQuery("past-the-bound"); len(ids) != 0 {
		t.Fatalf("refused instance is queryable: %v", ids)
	}
	if ids := themeQuery("CF NetCDF"); len(ids) != 1 {
		t.Fatalf("existing object lost its themes: %v", ids)
	}
	if next := ingestFig3(t, c); next != id+1 {
		t.Fatalf("ordinary ingest after the refusal got ID %d", next)
	}
}

// keyOracle is the reference the key-list algebra is checked against: a
// plain map of keys, built from the raw, unsorted, duplicated input.
type keyOracle map[uint64]bool

func oracleOf(raw []uint64) keyOracle {
	o := keyOracle{}
	for _, k := range raw {
		o[k] = true
	}
	return o
}

func (o keyOracle) and(p keyOracle) keyOracle {
	out := keyOracle{}
	for k := range o {
		if p[k] {
			out[k] = true
		}
	}
	return out
}

func (o keyOracle) or(p keyOracle) keyOracle {
	out := keyOracle{}
	for k := range o {
		out[k] = true
	}
	for k := range p {
		out[k] = true
	}
	return out
}

func (o keyOracle) objects() keyOracle {
	out := keyOracle{}
	for k := range o {
		out[k>>instSeqBits] = true
	}
	return out
}

// checkKeys verifies a key list against the oracle: strictly ascending,
// the same keys, and membership true for every key and agreeing with
// the oracle on each key's neighbours.
func checkKeys(t *testing.T, label string, got []uint64, o keyOracle) {
	t.Helper()
	want := make([]uint64, 0, len(o))
	for k := range o {
		want = append(want, k)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: got %v, want %v", label, got, want)
	}
	for _, k := range want {
		for _, probe := range []uint64{k - 1, k, k + 1} {
			if contains(got, probe) != o[probe] {
				t.Fatalf("%s: contains(%d) = %v", label, probe, !o[probe])
			}
		}
	}
}

// checkKeyAlgebra builds two key lists from raw keys and checks build,
// and, andAscending, or, objectSet and membership against the oracle, and
// that no operation mutates its operands.
func checkKeyAlgebra(t *testing.T, rawA, rawB []uint64) {
	t.Helper()
	oa, ob := oracleOf(rawA), oracleOf(rawB)
	a, b := sortedKeys(slices.Clone(rawA)), sortedKeys(slices.Clone(rawB))
	checkKeys(t, "build a", a, oa)
	checkKeys(t, "build b", b, ob)
	beforeA, beforeB := slices.Clone(a), slices.Clone(b)
	checkKeys(t, "and", and(a, b), oa.and(ob))
	checkKeys(t, "and reversed", and(b, a), oa.and(ob))
	checkKeys(t, "andAscending", andAscending([][]uint64{a, b, a}), oa.and(ob))
	checkKeys(t, "or", or(a, b), oa.or(ob))
	checkKeys(t, "or reversed", or(b, a), oa.or(ob))
	checkKeys(t, "objectSet", objectSet(a), oa.objects())
	checkKeys(t, "objectSet of and", objectSet(and(a, b)), oa.and(ob).objects())
	if !slices.Equal(a, beforeA) || !slices.Equal(b, beforeB) {
		t.Fatal("an operation mutated its operands")
	}
}

// boundaryKeys are the packing's extremes: seq at instSeqMask and
// object at maxInstObject.
var boundaryKeys = []uint64{
	0,
	instSeqMask,
	1 << instSeqBits,
	uint64(maxInstObject) << instSeqBits,
	uint64(maxInstObject)<<instSeqBits | instSeqMask,
}

// randomKey draws one instance key: mostly clustered on a few objects
// and ordinals, so lists share objects and repeat keys, sometimes
// anywhere in the packing, sometimes a boundary key.
func randomKey(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return uint64(rng.Int63n(maxInstObject+1))<<instSeqBits | uint64(rng.Intn(instSeqMask+1))
	case 1:
		return boundaryKeys[rng.Intn(len(boundaryKeys))]
	default:
		return uint64(rng.Intn(8))<<instSeqBits | uint64(rng.Intn(6))
	}
}

// randomKeys draws an unsorted, duplicated key list of 0 to 40 keys;
// the short lengths (none, one) come up often.
func randomKeys(rng *rand.Rand) []uint64 {
	n := rng.Intn(41)
	if rng.Intn(3) == 0 {
		n = rng.Intn(2)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = randomKey(rng)
	}
	return out
}

func TestKeyListOpsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		checkKeyAlgebra(t, randomKeys(rng), randomKeys(rng))
	}
	// The boundary keys, unsorted and repeated, against one another.
	rev := slices.Clone(boundaryKeys)
	slices.Reverse(rev)
	checkKeyAlgebra(t, append(rev, boundaryKeys...), boundaryKeys[3:])
}

// TestKeyListSortedKeysMergesRuns holds sortedKeys to slices.Sort and
// slices.Compact on run-structured input, the shape a range over values
// produces: one ascending run per value. It covers a single run, runs
// sharing keys (a key repeated across runs and within one), runs of
// one key, empty input, exactly maxMergeRuns runs (merged) and one more
// (sorted).
func TestKeyListSortedKeysMergesRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	runList := func(runs int) []uint64 {
		var out []uint64
		for r := 0; r < runs; r++ {
			run := make([]uint64, rng.Intn(12))
			for i := range run {
				run[i] = randomKey(rng)
			}
			slices.Sort(run) // duplicates within a run stay
			out = append(out, run...)
		}
		return out
	}
	cases := [][]uint64{
		nil,
		{7},
		{1, 2, 2, 3, 9},       // one run
		{5, 6, 7, 1, 2, 3},    // two disjoint runs
		{1, 4, 9, 1, 4, 9},    // the same run twice
		{3, 2, 1},             // three runs of one key
		{2, 2, 1, 1, 3, 0, 0}, // duplicates within and across runs
	}
	for _, runs := range []int{1, 2, 3, 5, 17, 50, maxMergeRuns - 1, maxMergeRuns, maxMergeRuns + 1, 200} {
		for trial := 0; trial < 20; trial++ {
			cases = append(cases, runList(runs))
		}
	}
	// Exactly maxMergeRuns runs and one more, each run one key.
	for _, n := range []int{maxMergeRuns, maxMergeRuns + 1} {
		desc := make([]uint64, n)
		for i := range desc {
			desc[i] = uint64(n - i)
		}
		cases = append(cases, desc)
	}
	for i, in := range cases {
		want := slices.Clone(in)
		slices.Sort(want)
		want = slices.Compact(want)
		if got := sortedKeys(slices.Clone(in)); !slices.Equal(got, want) {
			t.Fatalf("case %d (%d keys): sortedKeys = %v, want %v", i, len(in), got, want)
		}
	}
}

func TestKeyListNilAndEmpty(t *testing.T) {
	one := []uint64{42}
	for _, s := range [][]uint64{nil, {}} {
		if len(sortedKeys(s)) != 0 || contains(s, 0) || len(objectSet(s)) != 0 {
			t.Fatalf("%#v does not read as empty", s)
		}
		if len(and(s, one)) != 0 || len(and(one, s)) != 0 || len(andAscending([][]uint64{one, s})) != 0 {
			t.Fatalf("intersecting %#v is not empty", s)
		}
	}
	if got := andAscending(nil); len(got) != 0 {
		t.Fatalf("andAscending of no lists = %v", got)
	}
	if got := andAscending([][]uint64{one}); !slices.Equal(got, one) {
		t.Fatalf("andAscending of one list = %v", got)
	}
	if !contains(one, 42) || contains(one, 41) || contains(one, 43) || !slices.Equal(and(one, one), one) {
		t.Fatal("one-element list misbehaves")
	}
}

// FuzzKeyListOps replays an opcode tape into two raw key lists, then
// checks the whole algebra against the oracle. `go test -run=Fuzz`
// replays the seeds as part of make bitmap and make mvcc, and -fuzz
// explores further.
func FuzzKeyListOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, int64(1))
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00, 0x80, 0x41, 0x07}, int64(2))
	f.Add([]byte{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}, int64(3))
	f.Add([]byte{250, 251, 252, 253, 254, 255, 0, 10, 20}, int64(4))
	f.Fuzz(func(t *testing.T, tape []byte, seed int64) {
		if len(tape) > 512 {
			tape = tape[:512]
		}
		rng := rand.New(rand.NewSource(seed))
		var raw [2][]uint64
		for _, op := range tape {
			side := int(op) & 1
			switch (op >> 1) % 3 {
			case 0: // a fresh key
				raw[side] = append(raw[side], randomKey(rng))
			case 1: // repeat a key already on this side
				if n := len(raw[side]); n > 0 {
					raw[side] = append(raw[side], raw[side][rng.Intn(n)])
				}
			case 2: // copy a key from the other side, so the lists overlap
				if n := len(raw[1-side]); n > 0 {
					raw[side] = append(raw[side], raw[1-side][rng.Intn(n)])
				}
			}
		}
		checkKeyAlgebra(t, raw[0], raw[1])
	})
}

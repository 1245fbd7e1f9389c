package catalog

import (
	"errors"
	"fmt"
	"testing"

	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// twinCatalogs returns one catalog on the bitmap pipeline and one on
// the row-path oracle, ingested with the Figure 3 document plus dx
// variants so range and inequality predicates discriminate.
func twinCatalogs(t *testing.T, base Options) (bitmap, oracle *Catalog) {
	t.Helper()
	open := func(disable bool) *Catalog {
		opts := base
		opts.DisableBitmaps = disable
		c := newLEADCatalog(t, opts)
		ingestFig3(t, c)
		for _, dx := range []string{"500", "1000", "2000", "4000"} {
			if _, err := c.IngestXML("scientist", fig3Variant(t, dx)); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	return open(false), open(true)
}

// TestBitmapMatchesRowPathOperators sweeps every comparison operator,
// numeric and string values, OneOf expansion, and the nested rollup,
// asserting the bitmap pipeline and the row-path oracle return
// identical object IDs.
func TestBitmapMatchesRowPathOperators(t *testing.T) {
	bm, or := twinCatalogs(t, Options{})

	dxQ := func(op relstore.CmpOp, v relstore.Value) *Query {
		q := &Query{}
		q.Attr("grid", "ARPS").AddElem("dx", "ARPS", op, v)
		return q
	}
	var queries []*Query
	for _, op := range []relstore.CmpOp{relstore.OpEq, relstore.OpNe, relstore.OpLt, relstore.OpLe, relstore.OpGt, relstore.OpGe} {
		queries = append(queries,
			dxQ(op, relstore.Int(1000)),
			dxQ(op, relstore.Float(2000)),
			dxQ(op, relstore.Int(-5)), // matches all (Ne/Gt/Ge) or none (Eq/Lt/Le)
		)
		// String comparisons probe the sval index.
		sq := &Query{}
		sq.Attr("theme", "").AddElem("themekt", "", op, relstore.Str("CF NetCDF"))
		queries = append(queries, sq)
	}
	// OneOf over mixed hit/miss values.
	oq := &Query{}
	oq.Attr("theme", "").AddElem("themekey", "", relstore.OpEq, relstore.Str("x")).
		Elems[0].OneOf = []relstore.Value{
		relstore.Str("convective_precipitation_amount"),
		relstore.Str("no_such_keyword"),
	}
	queries = append(queries, oq)
	// Nested containment rollup plus a second top-level criterion.
	nq := &Query{}
	ng := nq.Attr("grid", "ARPS")
	ng.AddElem("dx", "ARPS", relstore.OpGe, relstore.Int(1000))
	sub := &AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	sub.AddElem("dzmin", "ARPS", relstore.OpEq, relstore.Int(100))
	ng.AddSub(sub)
	nq.Attr("theme", "").AddElem("themekt", "", relstore.OpEq, relstore.Str("CF NetCDF"))
	queries = append(queries, nq)
	// No-element criterion: every instance of the definition.
	eq := &Query{}
	eq.Attr("grid", "ARPS")
	queries = append(queries, eq)

	some := 0
	for i, q := range queries {
		want, err1 := or.Evaluate(q)
		got, err2 := bm.Evaluate(q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d: err bitmap=%v oracle=%v", i, err2, err1)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("query %d: bitmap %v != oracle %v", i, got, want)
		}
		if len(want) > 0 {
			some++
		}
	}
	if some < len(queries)/3 {
		t.Fatalf("only %d/%d operator queries matched anything", some, len(queries))
	}
}

// TestBitmapMatchesRowPathAblation runs the recursive-rollup (A1,
// inverted list disabled) variant on both representations.
func TestBitmapMatchesRowPathAblation(t *testing.T) {
	bm, or := twinCatalogs(t, Options{DisableInvertedList: true})
	q := &Query{}
	g := q.Attr("grid", "ARPS")
	g.AddElem("dx", "ARPS", relstore.OpLe, relstore.Int(2000))
	sub := &AttrCriteria{Name: "grid-stretching", Source: "ARPS"}
	sub.AddElem("dzmin", "ARPS", relstore.OpEq, relstore.Int(100))
	g.AddSub(sub)
	want, err := or.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bm.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
		t.Fatalf("ablation: bitmap %v != oracle %v", got, want)
	}
}

// TestBitmapObservability asserts the bitmap pipeline feeds the new
// instrument families: container-kind counters and the intersect
// cardinality histogram.
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
	containers := uint64(0)
	for _, kind := range []string{"array", "bitmap", "run"} {
		containers += reg.Counter("query_bitmap_containers_total", obs.L("kind", kind)).Value()
	}
	if containers == 0 {
		t.Error("query_bitmap_containers_total never incremented")
	}
	if reg.Histogram("query_intersect_cardinality").Count() == 0 {
		t.Error("query_intersect_cardinality never observed")
	}
	// The postings layer memoized the probes.
	if st := c.CacheStats(); st.Postings.Misses == 0 {
		t.Errorf("expected postings-layer traffic: %+v", st)
	}
}

// TestInstKeyRange pins the packing envelope and the sentinel the
// row-path fallback keys on.
func TestInstKeyRange(t *testing.T) {
	k, err := instKey(7, 3)
	if err != nil || k != 7<<instSeqBits|3 {
		t.Fatalf("instKey(7,3) = %d, %v", k, err)
	}
	if k, err := instKey(maxInstObject, instSeqMask); err != nil || k != uint64(maxInstObject)<<instSeqBits|instSeqMask {
		t.Fatalf("instKey(max) = %d, %v", k, err)
	}
	for _, bad := range [][2]int64{{-1, 0}, {0, -1}, {0, instSeqMask + 1}, {maxInstObject + 1, 0}} {
		if _, err := instKey(bad[0], bad[1]); !errors.Is(err, errBitmapRange) {
			t.Errorf("instKey(%d,%d) err = %v, want errBitmapRange", bad[0], bad[1], err)
		}
	}
}

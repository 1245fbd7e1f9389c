package catalog

import (
	"errors"
	"fmt"
	"testing"

	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

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
	if err := c.mutate(func() error {
		_, err := c.wtab(TAttrData).Insert(relstore.Row{
			relstore.Int(id), relstore.Int(theme.ID), relstore.Int(instSeqMask - 1), relstore.Null(),
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

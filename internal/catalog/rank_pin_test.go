package catalog

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// reachableStructs walks the object graph from root through pointers,
// interfaces, slices, arrays, maps and struct fields (exported or not)
// and returns the names of every struct type it meets. Function values
// are opaque to it; nothing under Catalog.text holds one.
func reachableStructs(root any) map[string]bool {
	types := map[string]bool{}
	seen := map[unsafe.Pointer]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() && !seen[v.UnsafePointer()] {
				seen[v.UnsafePointer()] = true
				walk(v.Elem())
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			types[v.Type().String()] = true
			if !v.CanAddr() { // a map value or interface content: walk a copy
				c := reflect.New(v.Type()).Elem()
				c.Set(v)
				v = c
			}
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				walk(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(root))
	return types
}

// TestTextIndexPinsOnlyElemDataPages is the memory bound of the
// incremental text index: whatever brought the published index to the
// current version — the first build, an advance, an advance that
// compacted, a rebuild after a diff past its page budget — Catalog.text
// reaches elem_data's row pages and no other part of any relstore
// version (no tableVersion, hence no superseded B-tree; no dbVersion,
// hence no other table), and every page it pins is still current.
func TestTextIndexPinsOnlyElemDataPages(t *testing.T) {
	reg := obs.NewRegistry()
	c := newLEADCatalog(t, Options{Metrics: reg})
	ingest := func(i int) int64 {
		id, err := c.IngestXML("scientist", fig3Variant(t, fmt.Sprint(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	const corpus = 40
	var ids []int64
	for i := 0; i < corpus; i++ {
		ids = append(ids, ingest(i))
	}
	if seen := reachableStructs(c.DB.Snapshot()); !seen["relstore.tableVersion"] || !seen["relstore.btree"] {
		t.Fatalf("the walk cannot see into a relstore version: %v", seen)
	}
	q := &Query{Rank: &RankSpec{Terms: []string{"arps", "forecast"}}}
	check := func(what string, builds, advances float64) {
		t.Helper()
		if _, err := c.EvaluateRanked(q); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		s := reg.Snapshot()
		if b, a := s["textindex_builds_total"], s["textindex_advances_total"]; b != builds || a != advances {
			t.Fatalf("%s: %v builds and %v advances, want %v and %v", what, b, a, builds, advances)
		}
		st := c.text.Load()
		types := reachableStructs(st)
		if !types["relstore.rowPage"] || !types["textindex.Posting"] {
			t.Fatalf("%s: walk from Catalog.text did not reach the pages and postings: %v", what, types)
		}
		// relstore.Index is reachable through the table's schema; it is a
		// declaration and holds no tree.
		for _, name := range []string{"relstore.tableVersion", "relstore.dbVersion", "relstore.Snapshot",
			"relstore.Database", "relstore.Table", "relstore.btree"} {
			if types[name] {
				t.Fatalf("%s: %s reachable from Catalog.text", what, name)
			}
		}
		superseded := 0
		now := c.DB.Snapshot().MustTable(TElemData).Mark()
		if !st.mark.Diff(now, 0, func(int64, relstore.Row, relstore.Row) { superseded++ }) || superseded != 0 {
			t.Fatalf("%s: the index pins superseded elem_data pages (%d slots differ)", what, superseded)
		}
	}

	check("first build", 1, 0)
	// As many single-document changes as the base holds documents:
	// whatever fraction of the base the delta may reach before the
	// index compacts, some of these advances end in a compaction.
	advances := 0.0
	for i := 0; i < corpus; i++ {
		if i%2 == 0 {
			ids = append(ids, ingest(corpus+i))
		} else {
			if ok, err := c.Delete(ids[i]); err != nil || !ok {
				t.Fatalf("delete %d: %v %v", ids[i], ok, err)
			}
		}
		advances++
		check(fmt.Sprintf("advance %d", i), 1, advances)
	}
	// Grow elem_data by half in one go: over a quarter of the pages
	// differ, the diff is abandoned, the index rebuilt and the pin moved.
	for i := 0; i < corpus/2; i++ {
		ingest(2*corpus + i)
	}
	check("rebuild", 2, advances)
}

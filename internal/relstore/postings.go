package relstore

import (
	"fmt"

	"github.com/gridmeta/hybridcat/internal/bitset"
)

// Posting-list emission: the bitmap twins of LookupEqual/LookupRange.
// Instead of materializing an intermediate []int64, each matching row
// ID streams from the B-tree callback straight into a compressed
// bitset. Sequentially assigned row IDs arrive in nearly ascending
// clustered order, so the set's last-chunk fast path makes each insert
// O(1) and the result compresses to run containers under Optimize.
// These feed the catalog's Figure-4 bitmap pipeline (posting lists per
// criterion probe); the slice forms serve point lookups and the SQL
// layer.

// LookupEqualPostings adds to dst the row IDs whose indexed columns
// equal vals, using the named index. Validation and index-lookup
// accounting match LookupEqual exactly.
func (t *Table) LookupEqualPostings(indexName string, dst *bitset.Set, vals ...Value) error {
	tv := t.version()
	if tv == nil {
		return fmt.Errorf("relstore: no table %q", t.name)
	}
	ix := tv.indexes[indexName]
	if ix == nil {
		return fmt.Errorf("relstore: table %s: no index %q", t.name, indexName)
	}
	if len(vals) != len(ix.Cols) {
		return fmt.Errorf("relstore: index %s: got %d key values, want %d", indexName, len(vals), len(ix.Cols))
	}
	tv.state.countLookup()
	key := EncodeKey(vals...)
	if ix.Unique {
		if id, ok := ix.tree.Get(key); ok {
			dst.Add(uint64(id))
		}
		return nil
	}
	ix.tree.AscendPrefix(key, func(_ []byte, v int64) bool {
		dst.Add(uint64(v))
		return true
	})
	return nil
}

// LookupRangePostings adds to dst the row IDs whose indexed key falls
// within [lo, hi] per the bounds' inclusivity. Requires a B-tree index;
// bound encoding matches LookupRange exactly.
func (t *Table) LookupRangePostings(indexName string, dst *bitset.Set, lo, hi RangeBound) error {
	tv := t.version()
	if tv == nil {
		return fmt.Errorf("relstore: no table %q", t.name)
	}
	ix := tv.indexes[indexName]
	if ix == nil {
		return fmt.Errorf("relstore: table %s: no index %q", t.name, indexName)
	}
	if ix.Kind != BTreeIndex {
		return fmt.Errorf("relstore: index %s: range scan requires a B-tree index", indexName)
	}
	tv.state.countLookup()
	var loKey, hiKey []byte
	if lo.Set {
		loKey = EncodeKey(lo.Vals...)
		if !lo.Inclusive {
			loKey = prefixEnd(loKey)
		}
	}
	if hi.Set {
		hiKey = EncodeKey(hi.Vals...)
		if hi.Inclusive {
			hiKey = prefixEnd(hiKey)
		}
	}
	ix.tree.Ascend(loKey, hiKey, func(_ []byte, v int64) bool {
		dst.Add(uint64(v))
		return true
	})
	return nil
}

// ScanRowIDPostings adds every live row ID to dst in row-ID order —
// the full-table posting list, used when a criterion has no usable
// index. The whole scan observes one version, even on a live handle.
func (t *Table) ScanRowIDPostings(dst *bitset.Set) {
	tv := t.version()
	if tv == nil {
		return
	}
	tv.scan(func(id int64, _ Row) bool {
		dst.Add(uint64(id))
		return true
	})
}

// ScanTextPostings calls fn(doc, text) for every live row whose textCol
// holds a string, keyed by docCol's integer value — the emission hook
// the catalog's text index builds from (one call per elem_data sval).
// The whole scan observes one version, even on a live handle.
func (t *Table) ScanTextPostings(docCol, textCol int, fn func(doc int64, text string)) {
	tv := t.version()
	if tv == nil {
		return
	}
	tv.scan(func(_ int64, r Row) bool {
		if textCol < len(r) && docCol < len(r) && r[textCol].K == KString {
			fn(r[docCol].I, r[textCol].S)
		}
		return true
	})
}

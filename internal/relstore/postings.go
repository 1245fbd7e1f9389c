package relstore

import (
	"encoding/binary"
	"fmt"
)

// Index-only reads. A B-tree entry's key holds the encoded indexed
// columns, so a query that needs nothing but trailing integer columns of
// the matching rows can decode them from the keys and never fetch a row
// — the covering-index scan the catalog's Figure-4 probes, rollups and
// visibility filter are built on.

// LookupRangeTails calls fn with the last n indexed columns of every
// entry whose key falls within [lo, hi] per the bounds' inclusivity, in
// key order, until fn returns false; an equality probe on a key prefix
// is lo = hi = that prefix, inclusive. Each of the n tail columns must
// be a NOT NULL INT column, whose encoding has a fixed width, so the
// values are decoded from the key bytes and no row is read. tail is
// reused between calls. Bound encoding matches LookupRange; the call
// counts one index lookup.
func (t *Table) LookupRangeTails(indexName string, lo, hi RangeBound, n int, fn func(tail []int64) bool) error {
	tv := t.version()
	ix := tv.indexes[indexName]
	if ix == nil {
		return fmt.Errorf("relstore: table %s: no index %q", t.name, indexName)
	}
	if n < 1 || n > len(ix.Cols) {
		return fmt.Errorf("relstore: index %s: cannot decode %d tail columns of %d", indexName, n, len(ix.Cols))
	}
	for _, c := range ix.Cols[len(ix.Cols)-n:] {
		if col := tv.state.schema.Columns[c]; col.Type != KInt || !col.NotNull {
			return fmt.Errorf("relstore: index %s: tail column %q is not a NOT NULL INT", indexName, col.Name)
		}
	}
	tv.state.countLookup()
	suffix := rowIDSuffixLen
	if ix.Unique {
		suffix = 0
	}
	tail := make([]int64, n)
	loKey, hiKey := rangeKeys(lo, hi)
	ix.tree.Ascend(loKey, hiKey, func(key []byte, _ int64) bool {
		cells := key[len(key)-suffix-n*numberKeyLen:]
		for i := range tail {
			// The cell's last 8 bytes are the int with its sign bit flipped.
			payload := cells[i*numberKeyLen+numberKeyLen-8:]
			tail[i] = int64(binary.BigEndian.Uint64(payload) ^ 1<<63)
		}
		return fn(tail)
	})
	return nil
}

// ScanTextPostings calls fn(doc, text) for every live row whose textCol
// holds a string, keyed by docCol's integer value — the emission hook
// the catalog's text index builds from (one call per elem_data sval).
// The whole scan observes one version, even on a live handle.
func (t *Table) ScanTextPostings(docCol, textCol int, fn func(doc int64, text string)) {
	tv := t.version()
	tv.scan(func(_ int64, r Row) bool {
		if textCol < len(r) && docCol < len(r) && r[textCol].K == KString {
			fn(r[docCol].I, r[textCol].S)
		}
		return true
	})
}

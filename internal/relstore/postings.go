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
	ix, bt, err := tv.index(indexName)
	if err != nil {
		return err
	}
	if n < 1 || n > len(ix.cols) {
		return fmt.Errorf("relstore: index %s: cannot decode %d tail columns of %d", indexName, n, len(ix.cols))
	}
	for _, c := range ix.cols[len(ix.cols)-n:] {
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
	bt.Ascend(loKey, hiKey, func(key []byte, _ int64) bool {
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

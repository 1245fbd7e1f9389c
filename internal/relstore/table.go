package relstore

import (
	"bytes"
	"fmt"

	"github.com/gridmeta/hybridcat/internal/obs"
)

// Table is a handle onto one table of a Database. Row IDs are stable
// for the life of the row and may be reused after deletion.
//
// A handle is one of three bindings, fixed at creation:
//
//   - live (Database.Table): each read observes the version current at
//     that call; each mutation auto-commits one transaction. Safe for
//     concurrent use — reads are lock-free, writes serialize on the
//     database's writer mutex.
//   - pinned (Snapshot.Table): reads observe exactly the pinned
//     version; mutations panic.
//   - transactional (Tx.Table): reads observe the transaction's own
//     uncommitted writes; mutations apply to its building version.
type Table struct {
	// Schema is the table's columns and indexes; immutable.
	Schema *Schema

	name  string
	state *tableState
	db    *Database
	pin   *dbVersion // non-nil: read-only pinned version
	tx    *Tx        // non-nil: bound transaction
}

// version resolves the tableVersion this handle currently reads. Tables
// are never removed, so every version at or after the one that created
// the table holds it.
func (t *Table) version() *tableVersion {
	switch {
	case t.tx != nil:
		return t.tx.tables[t.name]
	case t.pin != nil:
		return t.pin.tables[t.name]
	default:
		return t.db.current.Load().tables[t.name]
	}
}

// write runs fn against a writable transaction: the handle's own when
// transaction-bound, otherwise one auto-committed around the call.
// Pinned handles reject writes.
func (t *Table) write(fn func(tx *Tx) error) error {
	if t.pin != nil {
		panic(fmt.Sprintf("relstore: write to snapshot-pinned table %q", t.name))
	}
	if t.tx != nil {
		return fn(t.tx)
	}
	tx := t.db.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	tx.Commit()
	return nil
}

// setMetrics attaches the table's per-table counters from reg, labeled
// with the table name (see Database.SetMetrics).
func (st *tableState) setMetrics(reg *obs.Registry) {
	l := obs.L("table", st.schema.Name)
	st.metrics.Store(&tableMetrics{
		reads:   reg.Counter("relstore_row_reads_total", l),
		writes:  reg.Counter("relstore_row_writes_total", l),
		lookups: reg.Counter("relstore_index_lookups_total", l),
	})
}

// NextAutoID returns a monotonically increasing int64, 1-based; used for
// synthetic primary keys. The counter is shared across versions of the
// table and never rewinds on abort, so IDs are unique but not dense.
func (t *Table) NextAutoID() int64 {
	return t.state.autoID.Add(1)
}

// AutoID returns the auto-ID counter: the highest ID NextAutoID has
// handed out or EnsureAutoID has reserved, 0 before either.
func (t *Table) AutoID() int64 {
	return t.state.autoID.Load()
}

// EnsureAutoID advances the auto-ID counter to at least min, so IDs
// assigned after restoring a snapshot never collide with restored rows.
func (t *Table) EnsureAutoID(min int64) {
	for {
		cur := t.state.autoID.Load()
		if cur >= min || t.state.autoID.CompareAndSwap(cur, min) {
			return
		}
	}
}

// Insert validates the row against the schema, appends it, and adds its
// entry to each index. It returns the new row ID.
func (t *Table) Insert(r Row) (int64, error) {
	var id int64
	err := t.write(func(tx *Tx) error {
		var err error
		id, err = tx.insertRow(t.name, r)
		return err
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Get returns the row stored under id, or nil if deleted/never existed.
// The row must not be mutated.
func (t *Table) Get(id int64) Row {
	tv := t.version()
	r := tv.row(id)
	if r != nil {
		tv.state.countReads(1)
	}
	return r
}

// Delete removes the row under id, reporting whether it existed.
func (t *Table) Delete(id int64) bool {
	var ok bool
	_ = t.write(func(tx *Tx) error {
		ok = tx.deleteRow(t.name, id)
		return nil
	})
	return ok
}

// Len returns the number of live rows.
func (t *Table) Len() int {
	tv := t.version()
	return tv.live
}

// Scan calls fn for every live row in row-ID order until fn returns
// false. The rows must not be mutated. The whole scan observes one
// version, even on a live handle.
func (t *Table) Scan(fn func(id int64, r Row) bool) {
	tv := t.version()
	tv.scan(fn)
}

// LookupEqual returns the row IDs whose indexed columns equal vals, using
// the named index. A NULL in vals matches no row (see Index).
func (t *Table) LookupEqual(indexName string, vals ...Value) ([]int64, error) {
	tv := t.version()
	ix, bt, err := tv.index(indexName)
	if err != nil {
		return nil, err
	}
	if len(vals) != len(ix.cols) {
		return nil, fmt.Errorf("relstore: index %s: got %d key values, want %d", indexName, len(vals), len(ix.cols))
	}
	tv.state.countLookup()
	key := EncodeKey(vals...)
	if ix.Unique {
		if id, ok := bt.Get(key); ok {
			return []int64{id}, nil
		}
		return nil, nil
	}
	var out []int64
	bt.AscendPrefix(key, func(_ []byte, v int64) bool {
		out = append(out, v)
		return true
	})
	return out, nil
}

// RangeBound describes one end of an index range scan.
type RangeBound struct {
	Vals      []Value // prefix of the index columns
	Inclusive bool
	Set       bool // false = unbounded
}

// LookupRange returns row IDs whose indexed key falls within [lo, hi] per
// the bounds' inclusivity, in key order.
func (t *Table) LookupRange(indexName string, lo, hi RangeBound) ([]int64, error) {
	tv := t.version()
	_, bt, err := tv.index(indexName)
	if err != nil {
		return nil, err
	}
	tv.state.countLookup()
	loKey, hiKey := rangeKeys(lo, hi)
	var out []int64
	bt.Ascend(loKey, hiKey, func(_ []byte, v int64) bool {
		out = append(out, v)
		return true
	})
	return out, nil
}

// CountPrefix returns how many entries of the named index have
// leading indexed columns equal to vals. It reads keys only: no row is
// fetched and no row-ID list is built. The call counts one index lookup.
func (t *Table) CountPrefix(indexName string, vals ...Value) (int, error) {
	tv := t.version()
	ix, bt, err := tv.index(indexName)
	if err != nil {
		return 0, err
	}
	if len(vals) == 0 || len(vals) > len(ix.cols) {
		return 0, fmt.Errorf("relstore: index %s: got %d key values, want 1..%d", indexName, len(vals), len(ix.cols))
	}
	tv.state.countLookup()
	var buf [32]byte // an integer key fits, so the common count allocates nothing
	prefix := buf[:0]
	for _, v := range vals {
		prefix = AppendKey(prefix, v)
	}
	n := 0
	bt.Ascend(prefix, nil, func(key []byte, _ int64) bool {
		if !bytes.HasPrefix(key, prefix) {
			return false
		}
		n++
		return true
	})
	return n, nil
}

// rangeKeys encodes the bounds as the B-tree's half-open [lo, hi) byte
// range; nil is unbounded.
func rangeKeys(lo, hi RangeBound) (loKey, hiKey []byte) {
	if lo.Set {
		loKey = EncodeKey(lo.Vals...)
		if !lo.Inclusive {
			// Skip every key with this exact prefix.
			loKey = prefixEnd(loKey)
		}
	}
	if hi.Set {
		hiKey = EncodeKey(hi.Vals...)
		if hi.Inclusive {
			hiKey = prefixEnd(hiKey)
		}
	}
	return loKey, hiKey
}

package relstore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Bulk build. Each index of a table filled by BulkLoad is built
// bottom-up instead of one Insert at a time: its entries are encoded
// into one buffer and sorted once, packed left to right into leaves of
// up to maxKeys keys, each with an arena of exactly its keys' size, and
// the internal levels are packed the same way over the nodes below. No
// entry descends the tree and no node splits, so the build costs one
// sort plus one copy of every key, and the tree comes out full.

// bulkEntry is one index entry awaiting the build: its key's position
// and length in the build's key buffer, and pre, eight of the key's
// bytes read as a big-endian integer, so most comparisons the sort makes
// are one integer compare (see sortFrom).
type bulkEntry struct {
	pre uint64
	off uint32
	n   uint32
}

// bulkKeys holds one index build's entries. A table's builds run one
// after another and reuse it, so its buffers grow to the largest index
// once.
type bulkKeys struct {
	buf  []byte
	ents []bulkEntry
}

func (k *bulkKeys) key(e bulkEntry) []byte { return k.buf[e.off : e.off+e.n] }

// chunk returns the 8 bytes of e's key from position depth as a
// big-endian integer, zero-padded past the key's end.
func (k *bulkKeys) chunk(e bulkEntry, depth int) uint64 {
	key := k.key(e)
	if len(key) >= depth+8 {
		return binary.BigEndian.Uint64(key[depth:])
	}
	var b [8]byte
	if depth < len(key) {
		copy(b[:], key[depth:])
	}
	return binary.BigEndian.Uint64(b[:])
}

// smallSort is the run length up to which sortFrom compares whole keys
// instead of loading the next chunk.
const smallSort = 12

// sortFrom sorts ents, whose keys agree on their first depth bytes, by
// key. It orders them by the 8 bytes from depth read as an integer, then
// sorts each run that ties from depth+8. The catalog's indexes lead with
// a column of few distinct values, so a comparison sort of whole keys
// spends most of its compares on a long common prefix; this spends them
// on one integer each, and input already in order costs one pass a
// level. Zero padding past a key's end cannot make two different keys
// tie: index keys are prefix-free (each value's encoding delimits
// itself, and every key ends in a fixed-width row ID), so keys
// that tie on a chunk are equal or both continue past it.
func (k *bulkKeys) sortFrom(ents []bulkEntry, depth int) {
	if len(ents) <= smallSort {
		slices.SortFunc(ents, func(a, b bulkEntry) int {
			return bytes.Compare(k.key(a)[depth:], k.key(b)[depth:])
		})
		return
	}
	for i := range ents {
		ents[i].pre = k.chunk(ents[i], depth)
	}
	byPre := func(a, b bulkEntry) int { return cmp.Compare(a.pre, b.pre) }
	if !slices.IsSortedFunc(ents, byPre) {
		slices.SortFunc(ents, byPre)
	}
	for i := 0; i < len(ents); {
		j := i + 1
		for j < len(ents) && ents[j].pre == ents[i].pre {
			j++
		}
		if j-i > 1 && int(ents[i].n) > depth+8 {
			k.sortFrom(ents[i:j], depth+8)
		}
		i = j
	}
}

// eachRow calls fn for every live row of pages in row-ID order and
// returns how many it visited; fn returning false stops the walk.
func eachRow(pages []*rowPage, nrows int64, fn func(id int64, r Row) bool) uint64 {
	var visited uint64
	for p, pg := range pages {
		base := int64(p) * pageSize
		for s := range pg.rows {
			id := base + int64(s)
			if id >= nrows {
				return visited
			}
			r := pg.rows[s]
			if r == nil {
				continue
			}
			visited++
			if !fn(id, r) {
				return visited
			}
		}
	}
	return visited
}

// buildTree builds ix's tree over the live rows of pages that have an
// entry in it, its nodes tagged with epoch, using k's buffers. It fails,
// building nothing, if ix is unique and two rows share their indexed
// columns: sorted, their keys are adjacent and differ only in the row
// ID.
func (k *bulkKeys) buildTree(ix *Index, epoch uint64, pages []*rowPage, nrows int64) (*btree, error) {
	k.buf, k.ents = k.buf[:0], slices.Grow(k.ents[:0], int(nrows))
	var tooLarge bool
	eachRow(pages, nrows, func(id int64, r Row) bool {
		off := len(k.buf)
		var ok bool
		if k.buf, ok = appendEntryKey(k.buf, ix, r, id); !ok {
			return true
		}
		if len(k.buf) > math.MaxUint32 {
			tooLarge = true
			return false
		}
		if len(k.ents) == 0 {
			// Size the buffer from the first key rather than growing it
			// by doubling, copying it each time.
			k.buf = slices.Grow(k.buf, len(k.buf)*int(nrows-1))
		}
		k.ents = append(k.ents, bulkEntry{off: uint32(off), n: uint32(len(k.buf) - off)})
		return true
	})
	if tooLarge {
		return nil, fmt.Errorf("relstore: index %s: keys exceed %d bytes", ix.Name, uint64(math.MaxUint32))
	}
	// Rows are stored in the order their IDs were assigned, so the
	// by-object indexes and the primary keys arrive in key order already.
	for i := 1; i < len(k.ents); i++ {
		if bytes.Compare(k.key(k.ents[i-1]), k.key(k.ents[i])) > 0 {
			k.sortFrom(k.ents, 0)
			break
		}
	}
	if ix.Unique {
		for i := 1; i < len(k.ents); i++ {
			a, b := k.key(k.ents[i-1]), k.key(k.ents[i])
			if bytes.Equal(a[:len(a)-rowIDSuffixLen], b[:len(b)-rowIDSuffixLen]) {
				return nil, fmt.Errorf("relstore: unique index %s violated", ix.Name)
			}
		}
	}
	return &btree{root: k.pack(epoch), size: len(k.ents), epoch: epoch}, nil
}

// spread splits n items into the fewest groups of at most max, sizes
// differing by at most one, and returns the group count and the size of
// group i. With two or more groups every group holds at least max/2
// items, rounded up, so a bulk-built node is at least half full.
func spread(n, max int) (groups int, size func(i int) int) {
	groups = (n + max - 1) / max
	return groups, func(i int) int {
		if i < n%groups {
			return n/groups + 1
		}
		return n / groups
	}
}

// pack builds the tree over k's sorted entries and returns its root.
func (k *bulkKeys) pack(epoch uint64) *bnode {
	if len(k.ents) == 0 {
		return &bnode{epoch: epoch, leaf: true}
	}
	// lows[i] is the smallest entry under nodes[i]: its separator in the
	// parent, the key its subtree's right neighbour's keys are all below.
	count, size := spread(len(k.ents), maxKeys)
	nodes, lows := make([]*bnode, count), make([]bulkEntry, count)
	for i, start := 0, 0; i < count; i++ {
		part := k.ents[start : start+size(i)]
		leaf := &bnode{epoch: epoch, leaf: true}
		leaf.arena, leaf.offs = k.arena(part)
		nodes[i], lows[i] = leaf, part[0]
		start += len(part)
	}
	for len(nodes) > 1 {
		count, size := spread(len(nodes), maxKeys+1)
		up, upLows := make([]*bnode, count), make([]bulkEntry, count)
		for i, start := 0, 0; i < count; i++ {
			end := start + size(i)
			n := &bnode{epoch: epoch, children: slices.Clone(nodes[start:end])}
			n.arena, n.offs = k.arena(lows[start+1 : end])
			up[i], upLows[i] = n, lows[start]
			start = end
		}
		nodes, lows = up, upLows
	}
	return nodes[0]
}

// arena copies the keys of ents, in order, into an arena of exactly
// their size and returns it with their offsets.
func (k *bulkKeys) arena(ents []bulkEntry) ([]byte, []uint32) {
	size := 0
	for _, e := range ents {
		size += entryLen(k.key(e))
	}
	arena, offs := make([]byte, 0, size), make([]uint32, len(ents))
	for i, e := range ents {
		offs[i] = uint32(len(arena))
		arena = append(binary.AppendUvarint(arena, uint64(e.n)), k.key(e)...)
	}
	return arena, offs
}

// BulkLoad fills the table, which must be empty, with n rows: next
// yields them in turn, and the i'th is stored under row ID i. Each row
// is validated against the schema and copied, so next may reuse the row
// it returns. Every index of the table is then built bottom-up (see
// bulkKeys.buildTree) rather than by n inserts. Each row counts as one row write.
// An error from next, an invalid row or a duplicate key in a unique
// index leaves the table as it was.
func (t *Table) BulkLoad(n int, next func() (Row, error)) error {
	return t.write(func(tx *Tx) error {
		return tx.bulkLoad(t.name, n, next)
	})
}

// bulkLoad implements BulkLoad inside tx.
func (tx *Tx) bulkLoad(name string, n int, next func() (Row, error)) error {
	tv := tx.writable(name)
	if tv.nrows != 0 {
		return fmt.Errorf("relstore: table %s: bulk load into a table that holds rows", name)
	}
	var pages []*rowPage
	for id := 0; id < n; id++ {
		r, err := next()
		if err != nil {
			return err
		}
		nr, err := tv.state.schema.CheckRow(r)
		if err != nil {
			return err
		}
		if id%pageSize == 0 {
			pages = append(pages, &rowPage{epoch: tx.epoch})
		}
		pages[id/pageSize].rows[id%pageSize] = nr
	}
	ixs := tv.state.schema.Indexes
	trees := make([]*btree, len(ixs))
	var k bulkKeys
	for i := range ixs {
		var err error
		if trees[i], err = k.buildTree(&ixs[i], tx.epoch, pages, int64(n)); err != nil {
			return err
		}
	}
	tv.pages, tv.nrows, tv.live, tv.trees = pages, int64(n), n, trees
	tv.state.countWrites(uint64(n))
	return nil
}

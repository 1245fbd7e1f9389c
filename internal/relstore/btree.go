package relstore

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// btree is a copy-on-write B+ tree holding a sorted set of
// order-preserving encoded keys. An index entry is one key: the encoded
// indexed columns followed by the 8-byte row ID (appendEntryKey), so
// every key is distinct and the row ID is read off its suffix.
//
// Deletion only removes. A leaf left without keys, or an internal node
// left without children, is unlinked from its parent with one adjacent
// separator, and a root left internal with one child is replaced by it;
// no node takes keys from a sibling or is joined to one. Every leaf
// stays at one depth and no non-root node is empty, but nodes may be
// sparse after many deletes. A snapshot load builds every tree full
// (bulk.go).
//
// Mutation is by path copying: every node carries the epoch of the
// transaction that allocated it, and a mutation first replaces each node
// on the root-to-leaf path whose epoch differs from the tree's with a
// private copy. Nodes from older committed versions are therefore never
// modified, so readers holding a pinned snapshot can walk the tree with
// no synchronization while writers build the next version. A whole-tree
// clone for the next epoch is O(1): share the root, bump the epoch.
//
// There is deliberately no leaf chain — a next pointer would make every
// leaf split mutate its left sibling, destroying structural sharing.
// Range scans descend with an in-order walk instead.
//
// Key storage. A node keeps its keys in one byte arena, each as a
// uvarint length followed by the key bytes, in the order they were
// added; offs holds the keys' arena positions in key order. A path copy
// copies offs, and children for an internal node, and shares the
// arena: the copy appends the keys it adds after the bytes it inherited,
// into the same backing array while its capacity lasts. A node's keys
// therefore sit in one block of memory, and storing a key copies it, so
// callers may reuse the buffer they pass in. Splits give the nodes they
// build fresh arenas; a separator is copied into its parent's arena.
// Keys a node drops (deleted keys, separators of unlinked children) stay
// behind as dead bytes until an append must grow the arena and finds
// them dominating (more dead bytes than live ones), when it packs the
// live keys into a fresh arena instead of growing the old one.
//
// Sharing a mutable backing array between versions is safe because:
//
//   - Only the single writer appends, and only to nodes it copied from
//     the head version (the newest committed or staged one), at
//     positions at or past the length it inherited from that node.
//   - An older copy never reads past its own offsets, which all lie
//     below the arena length it was published with; bytes below that
//     length are never written again. A reader and the writer never
//     touch the same byte, and the version swap orders everything a
//     reader can reach before the reader pins it.
//   - A node the head version references has the longest length of every
//     reachable copy sharing its arena: copies are made from the head,
//     and a committed or staged copy replaces its source in the new
//     head. After Abort or ResetHead, the next copy of a node may
//     overwrite bytes that only the discarded, unreachable copies
//     referenced.
//   - Keys handed to Ascend callbacks alias the arena (with capacity
//     clipped to the key, so an append cannot write into it). No caller
//     may keep one past its callback; none does.
type btree struct {
	root  *bnode
	size  int
	epoch uint64
}

// maxKeys is the fan-out bound: nodes split when they exceed maxKeys
// keys.
const maxKeys = 64

type bnode struct {
	epoch    uint64
	leaf     bool
	arena    []byte   // uvarint length + key bytes per key, in insertion order
	offs     []uint32 // arena positions of the keys, in key order
	children []*bnode // internal only, len(children) == len(offs)+1
}

// clone returns a tree sharing this tree's nodes, tagged with the given
// epoch so its first mutations path-copy instead of modifying shared
// state.
func (t *btree) clone(epoch uint64) *btree {
	return &btree{root: t.root, size: t.size, epoch: epoch}
}

// mut returns n if it already belongs to this tree's epoch, otherwise a
// private copy tagged with it that shares n's arena. Aborted
// transactions simply drop their copies: nothing reachable from a
// published root ever carries an unpublished epoch, so epoch reuse after
// an abort is safe.
func (t *btree) mut(n *bnode) *bnode {
	if n.epoch == t.epoch {
		return n
	}
	c := &bnode{epoch: t.epoch, leaf: n.leaf, arena: n.arena}
	c.offs = append(make([]uint32, 0, len(n.offs)+1), n.offs...)
	if !n.leaf {
		c.children = append(make([]*bnode, 0, len(n.children)+1), n.children...)
	}
	return c
}

// Len returns the number of keys.
func (t *btree) Len() int { return t.size }

// key returns n's i'th key in key order (entryKey).
func (n *bnode) key(i int) []byte { return entryKey(n.arena[n.offs[i]:]) }

// entryKey returns the key of the arena entry e starts with. It aliases
// the arena, with its capacity clipped to the key.
func entryKey(e []byte) []byte {
	if l := int(e[0]); l < 0x80 {
		return e[1:][:l:l]
	}
	return longEntryKey(e)
}

// longEntryKey is entryKey for a length prefix of more than one byte,
// kept apart so entryKey inlines into the scan loop.
func longEntryKey(e []byte) []byte {
	l, w := binary.Uvarint(e)
	return e[w:][:l:l]
}

// entryLen is the arena bytes one key occupies.
func entryLen(key []byte) int {
	n := len(key) + 1
	for l := len(key); l >= 0x80; l >>= 7 {
		n++
	}
	return n
}

// liveBytes is the arena bytes n's keys [from, to) occupy.
func (n *bnode) liveBytes(from, to int) int {
	size := 0
	for i := from; i < to; i++ {
		size += entryLen(n.key(i))
	}
	return size
}

// addKey copies key into n's arena and returns its position. n must be
// private to the writer. An append that has to grow the arena packs the
// live keys into a fresh one instead when dead bytes outnumber live
// ones; offs is rewritten in place then, so a caller holding n.offs
// across the call still sees every key.
func (n *bnode) addKey(key []byte) uint32 {
	if len(n.arena)+entryLen(key) > cap(n.arena) && 2*n.liveBytes(0, len(n.offs)) < len(n.arena) {
		arena, offs := n.packed(0, len(n.offs))
		n.arena = arena
		copy(n.offs, offs)
	}
	off := uint32(len(n.arena))
	n.arena = append(binary.AppendUvarint(n.arena, uint64(len(key))), key...)
	return off
}

// pushKeys copies src's keys [from, to) into n, after n's own keys.
func (n *bnode) pushKeys(src *bnode, from, to int) {
	for i := from; i < to; i++ {
		n.offs = append(n.offs, n.addKey(src.key(i)))
	}
}

// arenaCap is the capacity a fresh arena gets for keys taking live
// bytes: half as much again, so the next keys append in place. A
// node's arena never shrinks until it is rebuilt, so the room is a
// trade between the copies a growing arena makes and the bytes every
// node holds unused.
func arenaCap(live int) int {
	return live + live/2
}

// packed returns a fresh arena and offsets holding n's keys [from, to).
// n's own arena is left as it is, so keys taken from it stay valid.
func (n *bnode) packed(from, to int) ([]byte, []uint32) {
	p := bnode{
		arena: make([]byte, 0, arenaCap(n.liveBytes(from, to))),
		offs:  make([]uint32, 0, to-from+1),
	}
	p.pushKeys(n, from, to)
	return p.arena, p.offs
}

// search returns the index of the first key of n >= key, and whether
// that key equals key.
func (n *bnode) search(key []byte) (int, bool) {
	lo, hi := 0, len(n.offs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(n.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.offs) && bytes.Equal(n.key(lo), key)
}

// childFor returns the index of the child of internal node n whose
// subtree holds key: a separator equal to key sends it right.
func (n *bnode) childFor(key []byte) int {
	i, eq := n.search(key)
	if eq {
		i++
	}
	return i
}

// Insert adds key, which the tree must not hold: every entry key ends
// in its row ID, so no two rows' keys are equal. The tree copies key;
// the caller may reuse it. Must only be called on a tree private to the
// writing transaction.
func (t *btree) Insert(key []byte) {
	t.root = t.mut(t.root)
	if promoted, right := t.insert(t.root, key); right != nil {
		root := &bnode{epoch: t.epoch, children: []*bnode{t.root, right}}
		root.offs = []uint32{root.addKey(promoted)}
		t.root = root
	}
	t.size++
}

// insert adds key to the subtree at n, which is already a private copy.
// When n splits it returns the promoted separator and the new right
// sibling.
func (t *btree) insert(n *bnode, key []byte) (promoted []byte, right *bnode) {
	if n.leaf {
		i, _ := n.search(key)
		n.offs = slices.Insert(n.offs, i, n.addKey(key))
	} else {
		i := n.childFor(key)
		child := t.mut(n.children[i])
		n.children[i] = child
		if p, r := t.insert(child, key); r != nil {
			n.offs = slices.Insert(n.offs, i, n.addKey(p))
			n.children = slices.Insert(n.children, i+1, r)
		}
	}
	if len(n.offs) <= maxKeys {
		return nil, nil
	}
	return t.split(n)
}

// split moves the upper half of n's keys into a new right sibling and
// returns the separator to promote. Both halves get fresh arenas; the
// separator aliases n's old one, which nothing writes again.
func (t *btree) split(n *bnode) ([]byte, *bnode) {
	mid := len(n.offs) / 2
	r := &bnode{epoch: t.epoch, leaf: n.leaf}
	if n.leaf {
		// For leaves the separator is the first key of the right node and
		// stays in the leaf (B+ tree style).
		r.arena, r.offs = n.packed(mid, len(n.offs))
		n.arena, n.offs = n.packed(0, mid)
		return r.key(0), r
	}
	promoted := n.key(mid)
	r.arena, r.offs = n.packed(mid+1, len(n.offs))
	r.children = append(make([]*bnode, 0, len(n.children)-mid), n.children[mid+1:]...)
	n.arena, n.offs = n.packed(0, mid)
	clear(n.children[mid+1:])
	n.children = n.children[:mid+1]
	return promoted, r
}

// Delete removes key, reporting whether it was present. A root left
// internal with a single child is replaced by that child. Must only be
// called on a tree private to the writing transaction.
func (t *btree) Delete(key []byte) bool {
	t.root = t.mut(t.root)
	if !t.del(t.root, key) {
		return false
	}
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	t.size--
	return true
}

// del removes key from the subtree at n, which is already a private
// copy. A child left empty — a leaf without keys, an internal node
// without children — is unlinked with the separator on its left, or on
// its right when it is the first child.
func (t *btree) del(n *bnode, key []byte) bool {
	if n.leaf {
		i, eq := n.search(key)
		if !eq {
			return false
		}
		n.offs = slices.Delete(n.offs, i, i+1)
		return true
	}
	i := n.childFor(key)
	child := t.mut(n.children[i])
	n.children[i] = child
	if !t.del(child, key) {
		return false
	}
	if child.empty() {
		n.children = slices.Delete(n.children, i, i+1)
		if j := max(i-1, 0); j < len(n.offs) {
			n.offs = slices.Delete(n.offs, j, j+1)
		}
	}
	return true
}

// empty reports whether n holds nothing: a leaf without keys or an
// internal node without children.
func (n *bnode) empty() bool {
	if n.leaf {
		return len(n.offs) == 0
	}
	return len(n.children) == 0
}

// Ascend visits the keys with lo <= key < hi in key order. A nil lo
// starts at the smallest key; a nil hi runs to the end. fn returning
// false stops the scan; the key it is passed aliases the tree and must
// not be kept past the call. The walk is a pure descent over immutable
// nodes, so it is safe against concurrent writers building a later
// epoch.
func (t *btree) Ascend(lo, hi []byte, fn func(key []byte) bool) {
	ascend(t.root, lo, hi, fn)
}

// ascend walks the subtree at n in order, reporting whether the scan
// should continue. lo only constrains the first subtree descended into;
// every later subtree is bounded below by a separator >= lo already. hi
// is located once per node: every subtree before the one that straddles
// it is walked with no bound, so no per-key compare runs.
func ascend(n *bnode, lo, hi []byte, fn func(key []byte) bool) bool {
	from, to := 0, len(n.offs)
	if hi != nil {
		to, _ = n.search(hi) // keys [to:] are >= hi
	}
	if n.leaf {
		if lo != nil {
			from, _ = n.search(lo)
		}
		from = min(from, to) // lo >= hi: nothing to visit
		arena := n.arena
		for _, o := range n.offs[from:to] {
			if !fn(entryKey(arena[o:])) {
				return false
			}
		}
		return to == len(n.offs)
	}
	if lo != nil {
		from = n.childFor(lo)
	}
	// children[i] for i < to lies wholly below keys[i] < hi; children[to]
	// may straddle hi; later children start at or past it.
	for i := from; i <= to; i++ {
		bound := hi
		if i < to {
			bound = nil
		}
		if !ascend(n.children[i], lo, bound, fn) {
			return false
		}
		lo = nil
	}
	return to == len(n.offs)
}

// AscendPrefix visits all keys that begin with prefix.
func (t *btree) AscendPrefix(prefix []byte, fn func(key []byte) bool) {
	if len(prefix) == 0 {
		t.Ascend(nil, nil, fn)
		return
	}
	t.Ascend(prefix, prefixEnd(prefix), fn)
}

// HasPrefix reports whether some key begins with prefix.
func (t *btree) HasPrefix(prefix []byte) bool {
	found := false
	t.Ascend(prefix, nil, func(key []byte) bool {
		found = bytes.HasPrefix(key, prefix)
		return false
	})
	return found
}

// prefixEnd returns the smallest key greater than every key with the given
// prefix, or nil when the prefix is all 0xFF.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// checkInvariants validates that every key lies inside its node's
// arena, that every key falls within the bounds its ancestors'
// separators set (left subtree < separator <= right subtree) in strictly
// ascending order, uniform leaf depth, that no non-root node is empty
// and an internal root has two children or more, and that Len counts
// the keys; used by tests.
func (t *btree) checkInvariants() error {
	depth, keys := -1, 0
	var walk func(n *bnode, d int, lo, hi []byte) error
	walk = func(n *bnode, d int, lo, hi []byte) error {
		switch {
		case d > 0 && n.empty():
			return errInvariant("empty non-root node")
		case d == 0 && !n.leaf && len(n.children) < 2:
			return errInvariant("internal root with fewer than two children")
		}
		for _, o := range n.offs {
			if int(o) >= len(n.arena) {
				return errInvariant("key offset past the arena")
			}
			l, w := binary.Uvarint(n.arena[o:])
			if w <= 0 || int(o)+w+int(l) > len(n.arena) {
				return errInvariant("key runs past the arena")
			}
		}
		for i := range n.offs {
			k := n.key(i)
			switch {
			case i > 0 && bytes.Compare(n.key(i-1), k) >= 0:
				return errInvariant("keys out of order")
			case lo != nil && bytes.Compare(k, lo) < 0:
				return errInvariant("key below its subtree's separator")
			case hi != nil && bytes.Compare(k, hi) >= 0:
				return errInvariant("key not below the next separator")
			}
		}
		if n.leaf {
			keys += len(n.offs)
			if depth == -1 {
				depth = d
			} else if depth != d {
				return errInvariant("leaf depth not uniform")
			}
			return nil
		}
		if len(n.children) != len(n.offs)+1 {
			return errInvariant("child count mismatch")
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.key(i - 1)
			}
			if i < len(n.offs) {
				chi = n.key(i)
			}
			if err := walk(c, d+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, nil, nil); err != nil {
		return err
	}
	if keys != t.size {
		return errInvariant("Len differs from the keys held")
	}
	return nil
}

type errInvariant string

func (e errInvariant) Error() string { return "btree: " + string(e) }

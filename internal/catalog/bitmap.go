package catalog

import (
	"fmt"
	"slices"

	"github.com/gridmeta/hybridcat/internal/bitset"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// Bitmap set algebra for the plan executor (exec.go). What flows
// between the Figure-4 stages is a compressed bitset of
// attribute-instance keys: probes decode them straight off the B-tree
// keys (relstore.LookupRangeTails), element predicates and the rollup
// combine them with word-at-a-time ANDs ordered by ascending
// cardinality, and the intersect stage ANDs per-criterion *object* sets
// the same way.

// An attribute instance (object_id, seq_id) packs into one uint64 key:
// object in the high bits, seq in the low instSeqBits. Sequence IDs are
// per-object, per-definition instance ordinals; the shredder refuses an
// object whose ordinal would pass instSeqMask (core's maxAttrSeq, pinned
// equal by TestSeqBoundMatchesInstKey), so every stored instance packs.
// Objects get the remaining 43 bits (the top bit stays clear so keys
// round-trip through int64 arithmetic).
const (
	instSeqBits   = 20
	instSeqMask   = 1<<instSeqBits - 1
	maxInstObject = int64(1)<<(63-instSeqBits) - 1
)

// instKey packs (object, seq) into one set key. An unpackable pair can
// only come from state the ingest bound did not guard (a snapshot or
// log written before it); the query fails rather than answer partially.
func instKey(object, seq int64) (uint64, error) {
	if object < 0 || object > maxInstObject || seq < 0 || seq > instSeqMask {
		return 0, fmt.Errorf("catalog: instance (object %d, seq %d) outside the bitmap key range", object, seq)
	}
	return uint64(object)<<instSeqBits | uint64(seq), nil
}

// objectSet projects an instance-key set onto its distinct object IDs.
// Iteration is ascending, so duplicate objects arrive consecutively and
// one lag value deduplicates.
func objectSet(instances *bitset.Set) *bitset.Set {
	out := bitset.New()
	prev := ^uint64(0)
	instances.Iterate(func(k uint64) bool {
		if obj := k >> instSeqBits; obj != prev {
			out.Add(obj)
			prev = obj
		}
		return true
	})
	out.Optimize()
	return out
}

// andAscending intersects the sets smallest-first — each AND against
// the running result only walks chunks both sides still have — with an
// empty-result early exit. Operands are never mutated; with one operand
// the result aliases it, which is safe because every consumer treats
// sets read-only.
func andAscending(sets []*bitset.Set) *bitset.Set {
	if len(sets) == 0 {
		return bitset.New()
	}
	ordered := slices.Clone(sets)
	slices.SortStableFunc(ordered, func(a, b *bitset.Set) int { return a.Card() - b.Card() })
	out := ordered[0]
	for _, s := range ordered[1:] {
		if out.IsEmpty() {
			break
		}
		out = out.And(s)
	}
	return out
}

// rollupSet narrows n's posting list to instances containing a
// satisfied instance of every child criterion: for each child, the
// cover set holds the ancestor instance keys of the inverted-list
// entries under the (child, n) definition pair whose child instance is
// in the child's set, and the covers AND against n's own set
// smallest-first. With the inverted list disabled (A1 ablation) it
// chases depth-1 parent links recursively instead, so the ablation
// contrasts like with like.
func (v *view) rollupSet(n *qNode, sets map[int]*bitset.Set) (*bitset.Set, error) {
	if v.c.opts.DisableInvertedList {
		return v.recursiveRollupSet(n, sets)
	}
	subT := v.tab(TSubAttrs)
	covers := make([]*bitset.Set, 0, len(n.children)+1)
	for _, child := range n.children {
		cover, err := coverSet(subT, child.def.ID, n.def.ID, sets[child.id])
		if err != nil {
			return nil, err
		}
		covers = append(covers, cover)
	}
	covers = append(covers, sets[n.id])
	return andAscending(covers), nil
}

// coverSet returns the instances of definition anc that contain an
// instance of definition child in childSet, read off the
// sub_attrs_by_child keys under the (child, anc) prefix, which end in
// (object_id, child_seq, anc_seq); no row is read.
func coverSet(subT *relstore.Table, child, anc int64, childSet *bitset.Set) (*bitset.Set, error) {
	cover := bitset.New()
	var err error
	pair := incl(relstore.Int(child), relstore.Int(anc))
	lerr := subT.LookupRangeTails("sub_attrs_by_child", pair, pair, 3, func(tail []int64) bool {
		var ck, ak uint64
		if ck, err = instKey(tail[0], tail[1]); err != nil {
			return false
		}
		if !childSet.Contains(ck) {
			return true
		}
		if ak, err = instKey(tail[0], tail[2]); err != nil {
			return false
		}
		cover.Add(ak)
		return true
	})
	if lerr != nil {
		return nil, lerr
	}
	if err != nil {
		return nil, err
	}
	cover.Optimize()
	return cover, nil
}

// recursiveRollupSet is the A1 ablation's rollup: with only depth-1
// links stored, each child's cover set is found by chasing parents
// level by level up to the root, one self-join of the frontier against
// the (definition, parent definition) links per level — the per-level
// joins that hinder the edge-table approach (§6).
func (v *view) recursiveRollupSet(n *qNode, sets map[int]*bitset.Set) (*bitset.Set, error) {
	subT := v.tab(TSubAttrs)
	covers := make([]*bitset.Set, 0, len(n.children)+1)
	for _, child := range n.children {
		cover := bitset.New()
		frontier := sets[child.id]
		for def := child.def; def.ParentID != 0 && !frontier.IsEmpty(); {
			parent := v.reg.AttrByID(def.ParentID)
			if parent == nil {
				break
			}
			next, err := coverSet(subT, def.ID, parent.ID, frontier)
			if err != nil {
				return nil, err
			}
			if parent.ID == n.def.ID {
				cover = next
			}
			frontier, def = next, parent
		}
		covers = append(covers, cover)
	}
	covers = append(covers, sets[n.id])
	return andAscending(covers), nil
}

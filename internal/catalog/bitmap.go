package catalog

import (
	"fmt"
	"slices"

	"github.com/gridmeta/hybridcat/internal/bitset"
	"github.com/gridmeta/hybridcat/internal/relstore"
)

// Bitmap set algebra for the plan executor (exec.go). What flows
// between the Figure-4 stages is a compressed bitset of
// attribute-instance keys: probes emit posting lists straight off the
// B-tree (relstore postings.go), element predicates and the rollup
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

// instanceSet converts a posting list of tab's row IDs into the set of
// instance keys, applying the optional row post-filter. Both attr_data
// and elem_data carry object_id at column 0 and seq_id at column 2.
func (v *view) instanceSet(tab *relstore.Table, rowSet *bitset.Set, post func(relstore.Row) bool) (*bitset.Set, error) {
	out := bitset.New()
	var err error
	rowSet.Iterate(func(id uint64) bool {
		r := tab.Get(int64(id))
		if r == nil || (post != nil && !post(r)) {
			return true
		}
		var k uint64
		if k, err = instKey(r[0].I, r[2].I); err != nil {
			return false
		}
		out.Add(k)
		return true
	})
	if err != nil {
		return nil, err
	}
	out.Optimize()
	return out, nil
}

// rollupSet narrows n's posting list to instances containing a
// satisfied instance of every child criterion: for each child, the
// cover set unions the ancestor instance keys of the inverted-list rows
// whose (object, child_seq) is in the child's set, and the covers AND
// against n's own set smallest-first. With the inverted list disabled
// (A1 ablation) it chases depth-1 parent links recursively instead, so
// the ablation contrasts like with like.
func (v *view) rollupSet(n *qNode, sets map[int]*bitset.Set) (*bitset.Set, error) {
	if v.c.opts.DisableInvertedList {
		return v.recursiveRollupSet(n, sets)
	}
	subT := v.tab(TSubAttrs)
	covers := make([]*bitset.Set, 0, len(n.children)+1)
	for _, child := range n.children {
		ids, err := subT.LookupEqual("sub_attrs_by_child", relstore.Int(child.def.ID))
		if err != nil {
			return nil, err
		}
		childSet := sets[child.id]
		cover := bitset.New()
		for _, rid := range ids {
			r := subT.Get(rid)
			// r: object, child_attr, child_seq, anc_attr, anc_seq, depth
			if r == nil || r[3].I != n.def.ID {
				continue
			}
			ck, err := instKey(r[0].I, r[2].I)
			if err != nil {
				return nil, err
			}
			if !childSet.Contains(ck) {
				continue
			}
			ak, err := instKey(r[0].I, r[4].I)
			if err != nil {
				return nil, err
			}
			cover.Add(ak)
		}
		cover.Optimize()
		covers = append(covers, cover)
	}
	covers = append(covers, sets[n.id])
	return andAscending(covers), nil
}

// recursiveRollupSet is the A1 ablation's rollup: with only depth-1
// links stored, each child's cover set is found by chasing parents
// level by level — the per-level self-joins that hinder the edge-table
// approach (§6).
func (v *view) recursiveRollupSet(n *qNode, sets map[int]*bitset.Set) (*bitset.Set, error) {
	subT := v.tab(TSubAttrs)
	type inst struct{ object, attrID, seq int64 }
	covers := make([]*bitset.Set, 0, len(n.children)+1)
	for _, child := range n.children {
		var frontier []inst
		sets[child.id].Iterate(func(k uint64) bool {
			frontier = append(frontier, inst{int64(k >> instSeqBits), child.def.ID, int64(k & instSeqMask)})
			return true
		})
		seen := make(map[inst]bool)
		cover := bitset.New()
		for len(frontier) > 0 {
			var next []inst
			for _, f := range frontier {
				ids, err := subT.LookupEqual("sub_attrs_by_child", relstore.Int(f.attrID))
				if err != nil {
					return nil, err
				}
				for _, rid := range ids {
					r := subT.Get(rid)
					if r == nil || r[5].I != 1 || r[0].I != f.object || r[2].I != f.seq {
						continue
					}
					parent := inst{r[0].I, r[3].I, r[4].I}
					if seen[parent] {
						continue
					}
					seen[parent] = true
					if parent.attrID == n.def.ID {
						k, err := instKey(parent.object, parent.seq)
						if err != nil {
							return nil, err
						}
						cover.Add(k)
					}
					next = append(next, parent)
				}
			}
			frontier = next
		}
		cover.Optimize()
		covers = append(covers, cover)
	}
	covers = append(covers, sets[n.id])
	return andAscending(covers), nil
}

package catalog

import (
	"fmt"
	"slices"

	"github.com/gridmeta/hybridcat/internal/relstore"
)

// Key-list set algebra for the plan executor (exec.go). What flows
// between the Figure-4 stages is a sorted, duplicate-free []uint64 of
// attribute-instance keys: probes decode them straight off the B-tree
// keys (relstore.LookupRangeTails), element predicates and the rollup
// combine them with linear merges ordered by ascending length, the
// intersect stage merges per-criterion *object* lists the same way, and
// the visible set is the union of two object lists.
// Every list is read-only once built, which is what lets the postings
// cache hand one list to every concurrent reader at the same epoch.

// An attribute instance (object_id, seq_id) packs into one uint64 key:
// object in the high bits, seq in the low instSeqBits, so ascending keys
// are (object, seq) order and a list projects onto objects in one pass.
// Sequence IDs are per-object, per-definition instance ordinals; the
// shredder refuses an object whose ordinal would pass instSeqMask (core's
// maxAttrSeq, pinned equal by TestSeqBoundMatchesInstKey), so every
// stored instance packs. Objects get the remaining 43 bits (the top bit
// stays clear so keys round-trip through int64 arithmetic).
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
		return 0, fmt.Errorf("catalog: instance (object %d, seq %d) outside the instance key range", object, seq)
	}
	return uint64(object)<<instSeqBits | uint64(seq), nil
}

// maxMergeRuns bounds the ascending runs sortedKeys merges; a list
// arriving in more runs than this is sorted instead.
const maxMergeRuns = 64

// sortedKeys turns the keys an index walk appended into a key list. One
// equality range arrives in (object, seq) order; a range over values
// arrives as one ascending run per distinct value (W1's parameters take
// 50), and several ranges or a cover set as several runs, which may
// repeat a key. Up to maxMergeRuns runs are merged pairwise, which reads
// each key once a round and uses the order the index walk already
// produced; more are sorted. The result is ks or a new list.
func sortedKeys(ks []uint64) []uint64 {
	var starts [maxMergeRuns]int
	runs := starts[:1]
	for i := 1; i < len(ks); i++ {
		if ks[i] < ks[i-1] {
			if len(runs) == maxMergeRuns {
				slices.Sort(ks)
				return slices.Compact(ks)
			}
			runs = append(runs, i)
		}
	}
	if len(runs) > 1 {
		ks = mergeRuns(ks, runs)
	}
	return slices.Compact(ks)
}

// mergeRuns sorts ks, made of ascending runs beginning at runs, by
// merging neighbouring runs until one is left, moving the keys between
// ks and one scratch list of the same length. It returns the list the
// keys ended in and rewrites runs.
func mergeRuns(ks []uint64, runs []int) []uint64 {
	src, dst := ks, make([]uint64, len(ks))
	for len(runs) > 1 {
		next := runs[:0]
		for r := 0; r < len(runs); r += 2 {
			lo, mid, hi := runs[r], len(src), len(src)
			if r+1 < len(runs) {
				mid = runs[r+1]
			}
			if r+2 < len(runs) {
				hi = runs[r+2]
			}
			merge(dst[lo:hi], src[lo:mid], src[mid:hi])
			next = append(next, lo)
		}
		runs = next
		src, dst = dst, src
	}
	return src
}

// merge writes the ascending merge of a and b into out, which holds
// exactly len(a)+len(b) keys.
func merge(out, a, b []uint64) {
	i, j, o := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out[o] = b[j]
			j++
		} else {
			out[o] = a[i]
			i++
		}
		o++
	}
	o += copy(out[o:], a[i:])
	copy(out[o:], b[j:])
}

// contains reports whether key is in the list.
func contains(ks []uint64, key uint64) bool {
	_, ok := slices.BinarySearch(ks, key)
	return ok
}

// and returns the intersection of two key lists as a new list; neither
// operand is mutated.
func and(a, b []uint64) []uint64 {
	out := make([]uint64, 0, min(len(a), len(b)))
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// or returns the union of two key lists as a new list; neither operand
// is mutated.
func or(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// objectSet projects an instance-key list onto its distinct object IDs.
// The keys ascend, so duplicate objects arrive consecutively and one lag
// value deduplicates.
func objectSet(instances []uint64) []uint64 {
	out := make([]uint64, 0, len(instances))
	prev := ^uint64(0)
	for _, k := range instances {
		if obj := k >> instSeqBits; obj != prev {
			out = append(out, obj)
			prev = obj
		}
	}
	return out
}

// andAscending intersects the lists shortest-first, so each merge walks
// at most the running result plus the next list, with an empty-result
// early exit. Operands are never mutated; with one operand the result
// aliases it, which is safe because every consumer treats lists
// read-only.
func andAscending(sets [][]uint64) []uint64 {
	if len(sets) == 0 {
		return nil
	}
	ordered := slices.Clone(sets)
	slices.SortStableFunc(ordered, func(a, b []uint64) int { return len(a) - len(b) })
	out := ordered[0]
	for _, s := range ordered[1:] {
		if len(out) == 0 {
			break
		}
		out = and(out, s)
	}
	return out
}

// rollupSet narrows n's posting list to instances containing a
// satisfied instance of every child criterion: for each child, the
// cover set holds the ancestor instance keys of the inverted-list
// entries under the (child, n) definition pair whose child instance is
// in the child's set, and the covers AND against n's own set
// shortest-first.
func (v *view) rollupSet(n *qNode, sets map[int][]uint64) ([]uint64, error) {
	subT := v.tab(TSubAttrs)
	covers := make([][]uint64, 0, len(n.children)+1)
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
func coverSet(subT *relstore.Table, child, anc int64, childSet []uint64) ([]uint64, error) {
	var cover []uint64
	var err error
	pair := incl(relstore.Int(child), relstore.Int(anc))
	lerr := subT.LookupRangeTails("sub_attrs_by_child", pair, pair, 3, func(tail []int64) bool {
		var ck, ak uint64
		if ck, err = instKey(tail[0], tail[1]); err != nil {
			return false
		}
		if !contains(childSet, ck) {
			return true
		}
		if ak, err = instKey(tail[0], tail[2]); err != nil {
			return false
		}
		cover = append(cover, ak)
		return true
	})
	if lerr != nil {
		return nil, lerr
	}
	if err != nil {
		return nil, err
	}
	return sortedKeys(cover), nil
}

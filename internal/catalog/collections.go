package catalog

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"github.com/gridmeta/hybridcat/internal/relstore"
)

// Collections implement the paper's aggregations (§1: scientists query
// for "objects (files or aggregations)") and the containment-viewpoint
// context queries of §7: objects are organized into a per-user hierarchy
// (project → experiment → collection in myLEAD), a query can be scoped to
// a collection subtree, and the broader-context direction — which
// experiments contain matching objects — is answered by the same
// membership tables.

// Collection table names.
const (
	TCollections = "collections"
	TMembers     = "collection_members"
)

// CollectionInfo describes one collection.
type CollectionInfo struct {
	ID       int64
	Name     string
	Owner    string
	ParentID int64 // 0 = root collection
}

// initCollections creates the collection tables; called from Open.
func (c *Catalog) initCollections() error {
	// A root collection's parent_coll_id is NULL, so it has no
	// collections_by_parent entry.
	if _, err := c.DB.CreateTable(TCollections, []relstore.Column{
		col("coll_id", relstore.KInt, true),
		col("name", relstore.KString, true),
		col("owner", relstore.KString, false),
		col("parent_coll_id", relstore.KInt, false),
	}, relstore.Index{Name: "collections_pk", Unique: true, Cols: []string{"coll_id"}},
		nonUnique("collections_by_parent", "parent_coll_id")); err != nil {
		return err
	}
	_, err := c.DB.CreateTable(TMembers, []relstore.Column{
		col("coll_id", relstore.KInt, true),
		col("object_id", relstore.KInt, true),
	}, relstore.Index{Name: "members_pk", Unique: true, Cols: []string{"coll_id", "object_id"}},
		nonUnique("members_by_object", "object_id"))
	return err
}

// CreateCollection creates a collection (aggregation). parentID 0 makes a
// root collection; otherwise the parent must exist.
func (c *Catalog) CreateCollection(name, owner string, parentID int64) (int64, error) {
	if name == "" {
		return 0, fmt.Errorf("catalog: collection needs a name")
	}
	o := op{kind: opCreateCollection, name: name, owner: owner, coll: parentID}
	if err := c.mutate(func() error {
		o.id = c.wtab(TCollections).NextAutoID()
		return c.applyCreateCollection(o)
	}); err != nil {
		return 0, err
	}
	return o.id, nil
}

// applyCreateCollection creates collection o.id under parent o.coll.
func (c *Catalog) applyCreateCollection(o op) error {
	// Reads run inside the mutation so they see the staged base, not a
	// published version that lags it while earlier commits sync.
	collT := c.wtab(TCollections)
	parent := relstore.Null()
	if o.coll != 0 {
		ids, err := collT.LookupEqual("collections_pk", relstore.Int(o.coll))
		if err != nil {
			return err
		}
		if len(ids) == 0 {
			return fmt.Errorf("catalog: no collection %d", o.coll)
		}
		parent = relstore.Int(o.coll)
	}
	// Replay's IDs are the log's: the allocator must pass them.
	collT.EnsureAutoID(o.id)
	if _, err := collT.Insert(relstore.Row{relstore.Int(o.id), relstore.Str(o.name), relstore.Str(o.owner), parent}); err != nil {
		return err
	}
	c.journal(o)
	return nil
}

// AddToCollection places an object into a collection. Membership is
// idempotent; an object may belong to several collections.
func (c *Catalog) AddToCollection(collID, objectID int64) error {
	return c.mutate(func() error {
		return c.applyAddMember(op{kind: opAddMember, coll: collID, id: objectID})
	})
}

// applyAddMember places object o.id into collection o.coll. An existing
// membership changes nothing and is not journaled.
func (c *Catalog) applyAddMember(o op) error {
	// All checks run against the staged base (see applyCreateCollection).
	ids, err := c.wtab(TCollections).LookupEqual("collections_pk", relstore.Int(o.coll))
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return fmt.Errorf("catalog: no collection %d", o.coll)
	}
	objIDs, err := c.wtab(TObjects).LookupEqual("objects_pk", relstore.Int(o.id))
	if err != nil {
		return err
	}
	if len(objIDs) == 0 {
		return fmt.Errorf("catalog: no object %d", o.id)
	}
	memT := c.wtab(TMembers)
	existing, err := memT.LookupEqual("members_pk", relstore.Int(o.coll), relstore.Int(o.id))
	if err != nil {
		return err
	}
	if len(existing) > 0 {
		return nil
	}
	if _, err := memT.Insert(relstore.Row{relstore.Int(o.coll), relstore.Int(o.id)}); err != nil {
		return err
	}
	c.journal(o)
	return nil
}

// RemoveFromCollection removes a membership, reporting whether it
// existed. A durability failure leaves the membership in place.
func (c *Catalog) RemoveFromCollection(collID, objectID int64) (bool, error) {
	return found(c.mutate(func() error {
		return c.applyRemoveMember(op{kind: opRemoveMember, coll: collID, id: objectID})
	}))
}

// applyRemoveMember removes object o.id from collection o.coll.
func (c *Catalog) applyRemoveMember(o op) error {
	// Lookup runs against the staged base (see applyCreateCollection).
	t := c.wtab(TMembers)
	ids, _ := t.LookupEqual("members_pk", relstore.Int(o.coll), relstore.Int(o.id))
	if len(ids) == 0 {
		return errNotFound
	}
	for _, rid := range ids {
		t.Delete(rid)
	}
	c.journal(o)
	return nil
}

// Collections lists all collections in ID order.
func (c *Catalog) Collections() []CollectionInfo {
	var out []CollectionInfo
	c.DB.MustTable(TCollections).Scan(func(_ int64, r relstore.Row) bool {
		info := CollectionInfo{ID: r[0].I, Name: r[1].S, Owner: r[2].S}
		if !r[3].IsNull() {
			info.ParentID = r[3].I
		}
		out = append(out, info)
		return true
	})
	slices.SortFunc(out, func(a, b CollectionInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// subtreeCollections returns collID and all transitive child collection
// IDs, walked entirely within the pinned snapshot.
func (v *view) subtreeCollections(collID int64) ([]int64, error) {
	collT := v.tab(TCollections)
	ids, err := collT.LookupEqual("collections_pk", relstore.Int(collID))
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("catalog: no collection %d", collID)
	}
	out := []int64{collID}
	frontier := []int64{collID}
	for len(frontier) > 0 {
		var next []int64
		for _, id := range frontier {
			childRows, err := collT.LookupEqual("collections_by_parent", relstore.Int(id))
			if err != nil {
				return nil, err
			}
			for _, rid := range childRows {
				if r := collT.Get(rid); r != nil {
					next = append(next, r[0].I)
				}
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out, nil
}

// CollectionObjects returns the object IDs in the collection subtree,
// ascending and de-duplicated.
func (c *Catalog) CollectionObjects(collID int64) ([]int64, error) {
	return c.pinView().collectionObjects(collID)
}

// collectionObjects is CollectionObjects within one pinned view.
func (v *view) collectionObjects(collID int64) ([]int64, error) {
	colls, err := v.subtreeCollections(collID)
	if err != nil {
		return nil, err
	}
	memT := v.tab(TMembers)
	seen := map[int64]bool{}
	var out []int64
	for _, cid := range colls {
		rows, err := memT.LookupRange("members_pk",
			relstore.RangeBound{Vals: []relstore.Value{relstore.Int(cid)}, Inclusive: true, Set: true},
			relstore.RangeBound{Vals: []relstore.Value{relstore.Int(cid)}, Inclusive: true, Set: true})
		if err != nil {
			return nil, err
		}
		for _, rid := range rows {
			if r := memT.Get(rid); r != nil && !seen[r[1].I] {
				seen[r[1].I] = true
				out = append(out, r[1].I)
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// EvaluateInContext runs the query scoped to a collection subtree — the
// containment viewpoint: only objects aggregated under the collection
// can match.
func (c *Catalog) EvaluateInContext(collID int64, q *Query) ([]int64, error) {
	return c.EvaluateInContextCtx(context.Background(), collID, q)
}

// EvaluateInContextCtx is EvaluateInContext honoring ctx cancellation
// ("context" in the name refers to the collection containment scope;
// ctx is Go cancellation, checked between pipeline stages).
func (c *Catalog) EvaluateInContextCtx(ctx context.Context, collID int64, q *Query) ([]int64, error) {
	// One pinned view covers both the scope walk and the evaluation, so
	// membership and match results come from the same epoch.
	v := c.pinViewCtx(ctx)
	scope, err := v.collectionObjects(collID)
	if err != nil {
		return nil, err
	}
	if len(scope) == 0 {
		return nil, nil
	}
	ids, err := v.evaluateTraced(q, nil)
	if err != nil {
		return nil, err
	}
	inScope := make(map[int64]bool, len(scope))
	for _, id := range scope {
		inScope[id] = true
	}
	var out []int64
	for _, id := range ids {
		if inScope[id] {
			out = append(out, id)
		}
	}
	return out, nil
}

// CollectionsContaining answers the broader-context direction the
// paper's §7 calls out: which collections (directly or through their
// subtree) contain at least one object matching the query.
func (c *Catalog) CollectionsContaining(q *Query) ([]int64, error) {
	v := c.pinView()
	ids, err := v.evaluateTraced(q, nil)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, nil
	}
	matched := make(map[int64]bool, len(ids))
	for _, id := range ids {
		matched[id] = true
	}
	// Direct memberships of matching objects.
	memT := v.tab(TMembers)
	direct := map[int64]bool{}
	for _, id := range ids {
		rows, err := memT.LookupEqual("members_by_object", relstore.Int(id))
		if err != nil {
			return nil, err
		}
		for _, rid := range rows {
			if r := memT.Get(rid); r != nil {
				direct[r[0].I] = true
			}
		}
	}
	// Ancestors of those collections also contain the objects.
	collT := v.tab(TCollections)
	parentOf := map[int64]int64{}
	collT.Scan(func(_ int64, r relstore.Row) bool {
		if !r[3].IsNull() {
			parentOf[r[0].I] = r[3].I
		}
		return true
	})
	all := map[int64]bool{}
	for cid := range direct {
		for id := cid; id != 0; id = parentOf[id] {
			if all[id] {
				break
			}
			all[id] = true
		}
	}
	out := make([]int64, 0, len(all))
	for id := range all {
		out = append(out, id)
	}
	slices.Sort(out)
	return out, nil
}

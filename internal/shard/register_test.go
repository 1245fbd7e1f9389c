package shard_test

import (
	"errors"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/core"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/shard"
)

// resolvedIDs returns the ID each shard resolves the admin attribute
// name/source at, 0 where it does not resolve.
func resolvedIDs(t *testing.T, cl *shard.Cluster, name, source string) []int64 {
	t.Helper()
	var ids []int64
	if err := cl.ForEachShard(func(_ int, c *catalog.Catalog) error {
		var id int64
		if d := c.Reg.Defs().LookupAttr(name, source, 0, ""); d != nil {
			id = d.ID
		}
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestShardBroadcastReissueConverges: shard 1's fsync fails in the
// middle of a definition broadcast, after shard 0 registered. Shard 1
// keeps no definition, and re-issuing the broadcast converges: shard 0
// counts its identical definition as registered, shard 1 registers at
// the same ID, and a reopened cluster resolves the definition at that
// one ID on every shard. A shard holding a different definition under
// the identity refuses the broadcast.
func TestShardBroadcastReissueConverges(t *testing.T) {
	open := func(fs faultio.FS) *shard.Cluster {
		t.Helper()
		cl, err := openRebalanceCluster(fs)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	// A counting run finds the broadcast's syncs: one per shard.
	counter := faultio.NewFaulty(faultio.NewMemFS(), faultio.Fault{})
	cl := open(counter)
	opened := counter.Counts()[faultio.OpSync]
	if _, err := cl.RegisterAttr("ghost", "SRC", 0, ""); err != nil {
		t.Fatal(err)
	}
	last := counter.Counts()[faultio.OpSync]
	if last != opened+2 {
		t.Fatalf("the broadcast synced %d times, want once per shard", last-opened)
	}
	cl.Close()

	mem := faultio.NewMemFS()
	cl = open(faultio.NewFaulty(mem, faultio.Fault{Op: faultio.OpSync, N: last, Mode: faultio.FailOp}))
	if _, err := cl.RegisterAttr("ghost", "SRC", 0, ""); !errors.Is(err, catalog.ErrDurability) {
		t.Fatalf("broadcast under shard 1's failing fsync = %v, want ErrDurability", err)
	}
	if ids := resolvedIDs(t, cl, "ghost", "SRC"); ids[0] == 0 || ids[1] != 0 {
		t.Fatalf("after the failed broadcast the shards resolve ghost at %v, want shard 0 only", ids)
	}
	ghost, err := cl.RegisterAttr("ghost", "SRC", 0, "")
	if err != nil {
		t.Fatalf("re-issued broadcast: %v", err)
	}
	if _, err := cl.RegisterElem("p0", "SRC", ghost.ID, core.DTFloat, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterElem("p0", "SRC", ghost.ID, core.DTInt, ""); err == nil {
		t.Error("a broadcast of a differently typed element under a held identity was accepted")
	}

	// Shard 0 holds "split" at one ID, shard 1 at the next: not identical.
	if err := cl.ForEachShard(func(i int, c *catalog.Catalog) error {
		if i == 1 {
			if _, err := c.RegisterAttr("filler", "SRC", 0, ""); err != nil {
				return err
			}
		}
		_, err := c.RegisterAttr("split", "SRC", 0, "")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterAttr("split", "SRC", 0, ""); err == nil {
		t.Error("a broadcast over a definition held at different IDs was accepted")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	cl = open(mem)
	defer cl.Close()
	for _, id := range resolvedIDs(t, cl, "ghost", "SRC") {
		if id != ghost.ID {
			t.Fatalf("reopened shards resolve ghost at %v, want %d on every shard", resolvedIDs(t, cl, "ghost", "SRC"), ghost.ID)
		}
	}
	if err := cl.ForEachShard(func(i int, c *catalog.Catalog) error {
		if d := c.Reg.Defs().LookupElem("p0", "SRC", ghost.ID, ""); d == nil || d.Type != core.DTFloat {
			t.Errorf("reopened shard %d resolves p0 as %+v", i, d)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

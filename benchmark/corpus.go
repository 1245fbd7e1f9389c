package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// walName is the single catalog's log file; its checkpoint snapshot is
// walName + ".snap" (mdserver -wal recovers from the pair).
const walName = "catalog.wal"

// clusterDir is the shard root below a data directory.
const clusterDir = "cluster"

// corpus is the preloaded state and the oracle's view of it: the
// generated DOM documents, never anything read back from the catalog.
type corpus struct {
	g       *opGen
	sharded bool
	docs    []*xmldoc.Node
	ids     []int64       // object ID (global ID when sharded) of document i
	index   map[int64]int // object ID -> document index
	shardOf []int         // shard holding document i (all 0 unless sharded)
	ownerAt map[string]int
	// docBytes is the serialized size of the preload, extrapolated from
	// a 64-document sample (documents differ by a few bytes; serializing
	// all of them would take as long as loading them).
	docBytes int64
}

// buildPreload generates the corpus, loads it in process into the
// topology the workload runs on and leaves it in dir as the files
// mdserver recovers from: a checkpoint snapshot beside a fresh WAL, or
// a closed 4-shard cluster root.
func buildPreload(g *opGen, sharded bool, dir string) (*corpus, error) {
	n := g.sz.Docs
	c := &corpus{
		g: g, sharded: sharded,
		docs: g.gen.Corpus(), ids: make([]int64, n), shardOf: make([]int, n),
		index: make(map[int64]int, n), ownerAt: map[string]int{},
	}
	var (
		ingest  func(owner string, doc *xmldoc.Node) (int64, error)
		publish func(id int64, published bool) error
		finish  func() error
	)
	if sharded {
		root := filepath.Join(dir, clusterDir)
		dirs := make([]string, shards)
		for i := range dirs {
			dirs[i] = filepath.Join(root, fmt.Sprintf("shard-%d", i))
		}
		cl, err := shard.Open(shard.Options{
			Schema: g.gen.Schema, Root: root, Shards: shards, Dirs: dirs,
			// The preload is not the measured write path: skip its fsyncs.
			Durability: catalog.DurabilityOptions{NoSync: true},
		})
		if err != nil {
			return nil, err
		}
		if err := cl.ForEachShard(func(_ int, cat *catalog.Catalog) error {
			return g.gen.RegisterDefinitions(cat)
		}); err != nil {
			return nil, err
		}
		for o := 0; o < owners; o++ {
			c.ownerAt[ownerName(o)] = cl.ShardFor(ownerName(o))
		}
		ingest, publish, finish = cl.Ingest, cl.SetPublished, cl.Close
	} else {
		cat, err := catalog.Open(g.gen.Schema, catalog.Options{})
		if err != nil {
			return nil, err
		}
		if err := g.gen.RegisterDefinitions(cat); err != nil {
			return nil, err
		}
		ingest, publish = cat.Ingest, cat.SetPublished
		finish = func() error { return cat.SaveFile(nil, filepath.Join(dir, walName+".snap")) }
	}
	for i, doc := range c.docs {
		owner := ownerName(i)
		id, err := ingest(owner, doc)
		if err != nil {
			return nil, fmt.Errorf("preload document %d: %w", i, err)
		}
		if isPublished(i) {
			if err := publish(id, true); err != nil {
				return nil, err
			}
		}
		c.ids[i], c.index[id], c.shardOf[i] = id, i, c.ownerAt[owner]
	}
	sample := 64
	if sample > n {
		sample = n
	}
	for i := 0; i < sample; i++ {
		c.docBytes += int64(len(c.docs[i*n/sample].String()))
	}
	c.docBytes = c.docBytes * int64(n) / int64(sample)
	return c, finish()
}

// visible applies §1's privacy rule to preloaded document i.
func (c *corpus) visible(owner string, i int) bool {
	return owner == "" || owner == ownerName(i) || isPublished(i)
}

// expected is the oracle: the ascending IDs of the preloaded documents
// that satisfy q by baseline.DocMatches over the DOM and that q's
// owner may see. On the sharded topology an owner-scoped query is
// routed, so it sees only its own shard's documents.
func (c *corpus) expected(q *catalog.Query) []int64 {
	structural := *q
	structural.Rank = nil
	routed := c.sharded && q.Owner != ""
	var ids []int64
	for i, doc := range c.docs {
		if routed && c.shardOf[i] != c.ownerAt[q.Owner] {
			continue
		}
		if c.visible(q.Owner, i) && baseline.DocMatches(c.g.gen.Schema, doc, &structural) {
			ids = append(ids, c.ids[i])
		}
	}
	slices.Sort(ids)
	return ids
}

// preloadOnly keeps the IDs that belong to the preload, in order.
func (c *corpus) preloadOnly(ids []int64) []int64 {
	out := make([]int64, 0, len(ids))
	for _, id := range ids {
		if _, ok := c.index[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// copyTree clones a preload directory for another consumer. A cluster
// root's routing table names its shard directories by path, so the
// copy's table is re-pointed at the copied directories.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if info.Name() == shard.RoutingFile {
			return copyRouting(path, target, src, dst)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func copyRouting(path, target, src, dst string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var table map[string]any
	if err := json.Unmarshal(data, &table); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	dirs, _ := table["dirs"].([]any)
	for i, d := range dirs {
		s, _ := d.(string)
		if !strings.HasPrefix(s, src) {
			return fmt.Errorf("%s: shard directory %q is outside %s", path, s, src)
		}
		dirs[i] = dst + strings.TrimPrefix(s, src)
	}
	out, err := json.Marshal(table)
	if err != nil {
		return err
	}
	return os.WriteFile(target, out, 0o644)
}

// dirBytes sums the regular files below dir whose name keep accepts.
func dirBytes(dir string, keep func(name string) bool) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() && keep(info.Name()) {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// Package shard partitions the catalog by owner across N embedded
// catalog instances, each with its own write-ahead log and checkpoint
// directory, behind a scatter-gather router. The design follows the
// POOL File Catalog's federation of per-site catalogs behind one lookup
// interface: the shard key is the document owner (FNV-1a hash), so one
// user's private metadata lives entirely on one shard and the common
// case — a user querying their own unpublished data — touches exactly
// one instance. Cross-owner (superuser) queries fan out to every shard
// and merge the per-shard Figure-4 result sets into one stable global
// order.
//
// Object identity: each shard assigns local object IDs independently,
// and the router exposes a global ID that interleaves them,
//
//	gid = local*N + shard
//
// so per-shard ascending ID order maps to ascending global order within
// the shard and a k-way merge of per-shard results is globally sorted.
// The encoding makes the shard count part of the cluster's identity: it
// is fixed when the cluster directory is created, persisted in the
// routing table file, and a reopen with a different -shards value is
// refused. Rebalancing moves a shard to a new directory (snapshot ship
// + WAL tail replay + atomic routing flip, see rebalance.go) but never
// changes N.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// RoutingFile is the cluster's routing table file name, under Root.
const RoutingFile = "routing.json"

// walFile is each shard's write-ahead log file name, under its dir.
const walFile = "catalog.wal"

// Options configures Open.
type Options struct {
	// Schema is the metadata schema every shard catalog opens with.
	Schema *xmlschema.Schema
	// Root is the cluster directory: the routing table lives at
	// Root/routing.json and default shard directories at Root/shard-i.
	Root string
	// Shards is the shard count when creating a new cluster; ignored (but
	// validated, if non-zero) when Root already holds a routing table,
	// because the global-ID encoding fixes N at creation. 0 means 1 on
	// creation, "whatever the routing table says" on reopen.
	Shards int
	// Dirs overrides the default shard directories on creation; must have
	// exactly Shards entries. Ignored on reopen — the routing table,
	// which tracks rebalances, wins.
	Dirs []string
	// Catalog is the per-shard catalog configuration. A Metrics registry
	// here is shared by every shard (counters aggregate across shards)
	// and carries the cluster's own shard_* instruments.
	Catalog catalog.Options
	// Durability is the per-shard durability template: FS, NoSync and
	// CheckpointEvery apply to every shard; WALPath is derived per shard
	// and ignored here.
	Durability catalog.DurabilityOptions
}

// Cluster is a sharded catalog: N embedded durable catalog instances
// behind an owner-hash router. All methods are safe for concurrent use.
type Cluster struct {
	schema      *xmlschema.Schema
	opts        Options
	fs          faultio.FS
	routingPath string
	n           int

	// table is the live routing table; readers load it lock-free, and a
	// rebalance swaps it atomically after the on-disk flip.
	table atomic.Pointer[routing]
	// rebMu serializes rebalances (one shard move at a time).
	rebMu  sync.Mutex
	closed atomic.Bool

	reg        *obs.Registry
	routeTotal []*obs.Counter
	fanout     *obs.Counter
	rebalances *obs.Counter
}

// routing is one immutable version of the shard table.
type routing struct {
	shards []*shardHandle
}

// shardHandle binds one shard slot to its current catalog instance. The
// gate closes the race between routing and writing: writers hold it
// shared around the shard mutation, and a rebalance holds it exclusive
// across the final WAL drain and the routing flip, so no acknowledged
// write can land on a shard instance after its state was shipped away.
type shardHandle struct {
	idx  int
	dir  string
	cat  *catalog.Catalog
	gate *sync.RWMutex
}

// routingDoc is the persisted routing table. The file is written with
// the same temp + fsync + rename protocol as catalog snapshots, so the
// flip during a rebalance is atomic: a crash at any instant leaves
// either the old table (old shard directory serves) or the new one (new
// directory serves), never a torn file and never both.
type routingDoc struct {
	Version int      `json:"version"`
	Dirs    []string `json:"dirs"`
}

// Open opens (or creates) a sharded cluster under opts.Root. On
// creation it writes the routing table and fresh shard directories; on
// reopen each shard recovers independently from its own snapshot + WAL,
// exactly as a single durable catalog would.
func Open(opts Options) (*Cluster, error) {
	if opts.Schema == nil {
		return nil, fmt.Errorf("shard: Options.Schema is required")
	}
	if opts.Root == "" {
		return nil, fmt.Errorf("shard: Options.Root is required")
	}
	fs := opts.Durability.FS
	if fs == nil {
		fs = faultio.OS{}
	}
	cl := &Cluster{
		schema:      opts.Schema,
		opts:        opts,
		fs:          fs,
		routingPath: filepath.Join(opts.Root, RoutingFile),
		reg:         opts.Catalog.Metrics,
	}
	if _, isOS := fs.(faultio.OS); isOS {
		if err := os.MkdirAll(opts.Root, 0o755); err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
	}

	dirs, err := cl.loadOrCreateRouting()
	if err != nil {
		return nil, err
	}
	cl.n = len(dirs)

	shards := make([]*shardHandle, cl.n)
	for i, dir := range dirs {
		cat, err := cl.openShardCatalog(dir)
		if err != nil {
			for _, h := range shards[:i] {
				_ = h.cat.Close()
			}
			return nil, fmt.Errorf("shard %d (%s): %w", i, dir, err)
		}
		shards[i] = &shardHandle{idx: i, dir: dir, cat: cat, gate: &sync.RWMutex{}}
	}
	cl.table.Store(&routing{shards: shards})
	cl.initMetrics()
	return cl, nil
}

// loadOrCreateRouting reads the routing table, or writes a fresh one
// from Shards/Dirs when the cluster is new. It returns the shard dirs.
func (cl *Cluster) loadOrCreateRouting() ([]string, error) {
	if _, err := cl.fs.Size(cl.routingPath); err == nil {
		doc, err := cl.readRouting()
		if err != nil {
			return nil, err
		}
		if cl.opts.Shards != 0 && cl.opts.Shards != len(doc.Dirs) {
			return nil, fmt.Errorf("shard: cluster at %s has %d shards; -shards %d would corrupt global IDs",
				cl.opts.Root, len(doc.Dirs), cl.opts.Shards)
		}
		return doc.Dirs, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("shard: routing table: %w", err)
	}
	n := cl.opts.Shards
	if n <= 0 {
		n = 1
	}
	dirs := cl.opts.Dirs
	if len(dirs) == 0 {
		dirs = make([]string, n)
		for i := range dirs {
			dirs[i] = filepath.Join(cl.opts.Root, "shard-"+strconv.Itoa(i))
		}
	} else if len(dirs) != n {
		return nil, fmt.Errorf("shard: %d dirs for %d shards", len(dirs), n)
	}
	if err := cl.saveRouting(dirs); err != nil {
		return nil, err
	}
	return dirs, nil
}

// readRouting loads and validates the persisted routing table.
func (cl *Cluster) readRouting() (*routingDoc, error) {
	f, err := cl.fs.Open(cl.routingPath)
	if err != nil {
		return nil, fmt.Errorf("shard: routing table: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("shard: routing table: %w", err)
	}
	var doc routingDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("shard: routing table %s: %w", cl.routingPath, err)
	}
	if doc.Version != 1 || len(doc.Dirs) == 0 {
		return nil, fmt.Errorf("shard: routing table %s: bad version or empty dirs", cl.routingPath)
	}
	return &doc, nil
}

// saveRouting atomically replaces the routing table file (temp + fsync
// + rename). This write IS the rebalance commit point.
func (cl *Cluster) saveRouting(dirs []string) error {
	data, err := json.MarshalIndent(routingDoc{Version: 1, Dirs: dirs}, "", "  ")
	if err != nil {
		return err
	}
	return faultio.WriteAtomic(cl.fs, cl.routingPath, func(w io.Writer) error {
		_, werr := w.Write(append(data, '\n'))
		return werr
	})
}

// openShardCatalog opens one shard's durable catalog under dir, using
// the cluster's durability template.
func (cl *Cluster) openShardCatalog(dir string) (*catalog.Catalog, error) {
	if _, isOS := cl.fs.(faultio.OS); isOS {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	dopts := cl.opts.Durability
	dopts.FS = cl.fs
	dopts.WALPath = filepath.Join(dir, walFile)
	return catalog.OpenDurable(cl.schema, cl.opts.Catalog, dopts)
}

// initMetrics registers the cluster's shard_* instruments on the shared
// registry. Gauges read through the atomic routing table, so they track
// the live instance across rebalances.
func (cl *Cluster) initMetrics() {
	if cl.reg == nil {
		return
	}
	cl.fanout = cl.reg.Counter("shard_fanout_queries_total")
	cl.rebalances = cl.reg.Counter("shard_rebalance_total")
	cl.routeTotal = make([]*obs.Counter, cl.n)
	for i := 0; i < cl.n; i++ {
		i := i
		label := obs.L("shard", strconv.Itoa(i))
		cl.routeTotal[i] = cl.reg.Counter("shard_route_total", label)
		cl.reg.GaugeFunc("shard_epoch", func() int64 {
			return int64(cl.handle(i).cat.DB.Generation())
		}, label)
		cl.reg.GaugeFunc("shard_published_seq", func() int64 {
			return int64(cl.handle(i).cat.PublishedSeq())
		}, label)
		cl.reg.GaugeFunc("shard_objects", func() int64 {
			return int64(cl.handle(i).cat.ObjectCount())
		}, label)
	}
}

// countRoute bumps the single-shard routing counter for shard idx.
func (cl *Cluster) countRoute(idx int) {
	if cl.routeTotal != nil {
		cl.routeTotal[idx].Inc()
	}
}

// Shards returns the cluster's fixed shard count.
func (cl *Cluster) Shards() int { return cl.n }

// Metrics returns the shared metrics registry (nil when opened without
// one).
func (cl *Cluster) Metrics() *obs.Registry { return cl.reg }

// ShardFor returns the shard index owning the given user's documents:
// FNV-1a over the owner name, mod the shard count.
func (cl *Cluster) ShardFor(owner string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(owner))
	return int(h.Sum64() % uint64(cl.n))
}

// GlobalID encodes a shard-local object ID as a cluster-global one.
func (cl *Cluster) GlobalID(shard int, local int64) int64 {
	return local*int64(cl.n) + int64(shard)
}

// SplitID decodes a global object ID into its shard index and the
// shard-local ID.
func (cl *Cluster) SplitID(gid int64) (shard int, local int64, err error) {
	if gid < int64(cl.n) {
		return 0, 0, fmt.Errorf("shard: invalid global id %d", gid)
	}
	return int(gid % int64(cl.n)), gid / int64(cl.n), nil
}

// handle returns shard idx's current instance without the write gate —
// the read path. Reads during a rebalance keep hitting the old instance
// until the atomic table swap, which is exactly the flip semantics the
// routing file persists.
func (cl *Cluster) handle(idx int) *shardHandle {
	return cl.table.Load().shards[idx]
}

// writeHandle returns shard idx's current instance with its gate held
// shared; the caller must release h.gate.RUnlock() after the mutation.
// The re-check closes the race with a concurrent rebalance: a writer
// that blocked on the gate during the flip wakes holding the RETIRED
// instance's gate, and retries against the new table — otherwise its
// acknowledged write would land on a catalog whose state was already
// shipped to the new directory, and be lost.
func (cl *Cluster) writeHandle(idx int) *shardHandle {
	for {
		h := cl.table.Load().shards[idx]
		h.gate.RLock()
		if cl.table.Load().shards[idx] == h {
			return h
		}
		h.gate.RUnlock()
	}
}

// ForEachShard runs fn on every shard's catalog in index order,
// stopping at the first error. It is the bootstrap hook for bulk
// definition registration (e.g. workload generators); fn must not
// retain the catalog across a rebalance.
func (cl *Cluster) ForEachShard(fn func(idx int, c *catalog.Catalog) error) error {
	t := cl.table.Load()
	for i, h := range t.shards {
		if err := fn(i, h.cat); err != nil {
			return err
		}
	}
	return nil
}

// ShardStat describes one shard's live instance for operators.
type ShardStat struct {
	Shard        int    `json:"shard"`
	Dir          string `json:"dir"`
	Objects      int    `json:"objects"`
	Epoch        uint64 `json:"epoch"`
	PublishedSeq uint64 `json:"published_seq"`
}

// Stats reports every shard's directory, object count, version epoch,
// and replication watermark.
func (cl *Cluster) Stats() []ShardStat {
	t := cl.table.Load()
	out := make([]ShardStat, len(t.shards))
	for i, h := range t.shards {
		out[i] = ShardStat{
			Shard:        i,
			Dir:          h.dir,
			Objects:      h.cat.ObjectCount(),
			Epoch:        h.cat.DB.Generation(),
			PublishedSeq: h.cat.PublishedSeq(),
		}
	}
	return out
}

// Wedged returns the first shard's wedged error, if any shard's
// durability layer refuses further mutations.
func (cl *Cluster) Wedged() error {
	t := cl.table.Load()
	for i, h := range t.shards {
		if err := h.cat.Wedged(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Close checkpoints and closes every shard. The cluster must not be
// used afterwards.
func (cl *Cluster) Close() error {
	if !cl.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	t := cl.table.Load()
	for i, h := range t.shards {
		if err := h.cat.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// mdserver runs the catalog as an HTTP/XML grid metadata service over
// the LEAD schema (or a schema DSL file). See internal/service for the
// endpoint list.
//
//	mdserver -addr :8080
//	mdserver -wal catalog.wal                        # durable: WAL + crash recovery
//	mdserver -wal catalog.wal -checkpoint-every 256  # bound recovery time
//	mdserver -ontology terms.txt                     # enable ?expand=1
//	mdserver -replica-of http://primary:8080 -max-lag 64   # read replica
//	mdserver -shards 4 -shard-root /data/shards      # owner-partitioned cluster
//	curl -X POST --data-binary @doc.xml 'localhost:8080/ingest?owner=alice'
//	curl -X POST --data @query.json localhost:8080/query
//
// With -wal, every mutation is committed to the write-ahead log before
// its HTTP response is sent, and startup recovers from the latest
// checkpoint snapshot plus the log; SIGINT/SIGTERM drains in-flight
// requests and writes a final checkpoint. To start a durable server
// from a snapshot (catalog.SaveFile, GET /wal/snapshot), place it at
// <wal>.snap beside an empty or absent log. Without -wal the catalog
// lives in memory only. Concurrent commits share one fsync per batch,
// with no collection window (see internal/wal). -replica-of turns the
// server into a read-only replica that tails the primary's /wal/stream
// and refuses reads once it lags more than -max-lag records behind.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/obs"
	"github.com/gridmeta/hybridcat/internal/ontology"
	"github.com/gridmeta/hybridcat/internal/replica"
	"github.com/gridmeta/hybridcat/internal/retry"
	"github.com/gridmeta/hybridcat/internal/service"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		schemaPath = flag.String("schema", "", "annotated schema DSL file (default: built-in LEAD)")
		autoReg    = flag.Bool("autoregister", false, "auto-register unknown dynamic attributes at ingest")
		walPath    = flag.String("wal", "", "write-ahead log file: mutations are durable before they are acknowledged, startup recovers snapshot+log")
		ckptEvery  = flag.Int("checkpoint-every", 1024, "with -wal: checkpoint after this many committed records (0 = only at shutdown)")
		ontPath    = flag.String("ontology", "", "term hierarchy file enabling ?expand=1 queries")
		cacheSize  = flag.Int("cache-size", 0, "entries per read-cache layer (0 = default, negative = read caches off)")
		metricsOn  = flag.Bool("metrics", true, "expose the metrics registry at GET /metrics and record query traces at /debug/tracez")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof at /debug/pprof/ and expvar at /debug/vars")
		replicaOf  = flag.String("replica-of", "", "run as a read replica of this primary base URL (tails /wal/stream; mutations answer 503)")
		maxLag     = flag.Uint64("max-lag", 0, "with -replica-of: refuse reads once the replica lags this many log records behind the primary (0 = serve regardless)")
		shards     = flag.Int("shards", 0, "run an owner-partitioned cluster of this many embedded catalogs (fixed at cluster creation; 0 = single catalog)")
		shardRoot  = flag.String("shard-root", "shards", "with -shards: cluster directory holding the routing table and default shard dirs")
		shardDirs  = flag.String("shard-dirs", "", "with -shards: comma-separated shard directories on creation (default shard-root/shard-i)")
	)
	flag.Parse()

	schema, err := loadSchema(*schemaPath)
	if err != nil {
		log.Fatal("mdserver: ", err)
	}
	opts := catalog.Options{
		AutoRegister: *autoReg,
		CacheSize:    *cacheSize,
	}
	if *metricsOn {
		opts.Metrics = obs.NewRegistry()
	}
	dopts := catalog.DurabilityOptions{WALPath: *walPath, CheckpointEvery: *ckptEvery}

	// The topology flags pick what sits behind the one service: srv
	// serves it, final makes its state durable once requests have
	// drained (finalMsg says what that wrote), durable names it in the
	// startup line.
	var (
		srv      *service.Server
		final    = func() error { return nil }
		finalMsg string
		durable  = "no durability"
	)
	switch {
	case *shards > 0 || *shardDirs != "":
		if *walPath != "" || *replicaOf != "" {
			log.Fatal("mdserver: -shards is incompatible with -wal/-replica-of (each shard has its own WAL under its directory)")
		}
		cl, err := openCluster(schema, opts, dopts, *shards, *shardRoot, *shardDirs)
		if err != nil {
			log.Fatal("mdserver: ", err)
		}
		srv, final = service.NewSharded(cl), cl.Close
		finalMsg = fmt.Sprintf("%d shard checkpoints written under %s", cl.Shards(), *shardRoot)
		durable = fmt.Sprintf("%d-shard cluster under %s (%d objects recovered), checkpoint every %d",
			cl.Shards(), *shardRoot, cl.ObjectCount(), *ckptEvery)
	case *replicaOf != "":
		if *walPath != "" {
			log.Fatal("mdserver: -replica-of is incompatible with -wal (a replica's state is the primary's log)")
		}
		rep, err := replica.New(replica.Options{
			Primary: *replicaOf,
			Schema:  schema,
			Catalog: opts,
			Retry:   retry.DefaultPolicy,
		})
		if err != nil {
			log.Fatal("mdserver: ", err)
		}
		tailCtx, tailCancel := context.WithCancel(context.Background())
		go func() {
			if err := rep.Run(tailCtx); !errors.Is(err, context.Canceled) {
				log.Print("mdserver: tailer: ", err)
			}
		}()
		srv = service.New(rep.Catalog())
		srv.Replica, srv.MaxLag = rep, *maxLag
		final = func() error { tailCancel(); return nil }
		durable = fmt.Sprintf("read replica of %s (max lag %d)", *replicaOf, *maxLag)
	default:
		cat, err := openCatalog(schema, opts, dopts)
		if err != nil {
			log.Fatal("mdserver: ", err)
		}
		srv = service.New(cat)
		if *walPath != "" {
			final, finalMsg = cat.Close, "final checkpoint written to "+*walPath+".snap"
			durable = fmt.Sprintf("WAL %s, checkpoint every %d", *walPath, *ckptEvery)
		}
	}
	if *ontPath != "" {
		data, err := os.ReadFile(*ontPath)
		if err != nil {
			log.Fatal("mdserver: ", err)
		}
		o, err := ontology.Parse(string(data))
		if err != nil {
			log.Fatal("mdserver: ", err)
		}
		srv.SetOntology(o)
		log.Printf("mdserver: ontology with %d terms loaded", o.Len())
	}

	var handler http.Handler = srv.Handler()
	if *pprofOn {
		handler = withProfiling(handler)
	}
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slow-client ceilings: a peer that trickles its headers or holds
		// an idle keep-alive connection cannot pin a goroutine forever.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGINT/SIGTERM: stop accepting, drain in-flight requests, then make
	// the final state durable (a checkpoint per WAL).
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		<-sig
		log.Print("mdserver: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Print("mdserver: shutdown: ", err)
		}
		if err := final(); err != nil {
			log.Fatal("mdserver: final checkpoint: ", err)
		}
		if finalMsg != "" {
			log.Print("mdserver: ", finalMsg)
		}
	}()

	caching := "read caches off"
	if *cacheSize >= 0 {
		size := *cacheSize
		if size == 0 {
			size = catalog.DefaultCacheSize
		}
		caching = fmt.Sprintf("read caches %d entries/layer", size)
	}
	observing := "metrics off"
	if *metricsOn {
		observing = "metrics on (/metrics)"
		if *pprofOn {
			observing += ", pprof on (/debug/pprof/)"
		}
	}
	log.Printf("mdserver: schema %s, %d metadata attributes, listening on %s (concurrent reads, %s, %s, %s)",
		schema.Name, len(schema.Attributes), *addr, caching, durable, observing)
	// Recovery's garbage (a snapshot's bytes, replayed documents) is
	// unreachable once the topology is open; return it to the OS now, so
	// the serving heap does not depend on where recovery's last GC fell.
	debug.FreeOSMemory()
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal("mdserver: ", err)
	}
	<-done
}

// openCluster opens (or creates) the owner-partitioned cluster under
// root: N embedded durable catalogs, each with its own WAL and
// checkpoints, behind the scatter-gather router (see internal/shard).
// dopts is the per-shard durability template; its WALPath is unused.
func openCluster(schema *xmlschema.Schema, opts catalog.Options, dopts catalog.DurabilityOptions,
	shards int, root, dirsCSV string) (*shard.Cluster, error) {
	var dirs []string
	if dirsCSV != "" {
		dirs = strings.Split(dirsCSV, ",")
		if shards == 0 {
			shards = len(dirs)
		}
	}
	return shard.Open(shard.Options{
		Schema: schema, Root: root, Shards: shards, Dirs: dirs,
		Catalog: opts, Durability: dopts,
	})
}

// openCatalog builds the catalog according to the persistence flags:
// -wal recovers snapshot+log and attaches durability; without it the
// catalog lives in memory only.
func openCatalog(schema *xmlschema.Schema, opts catalog.Options, dopts catalog.DurabilityOptions) (*catalog.Catalog, error) {
	if dopts.WALPath == "" {
		return catalog.Open(schema, opts)
	}
	cat, err := catalog.OpenDurable(schema, opts, dopts)
	if err != nil {
		return nil, err
	}
	st := cat.DurabilityStats()
	log.Printf("mdserver: recovered %d objects (WAL seq %d, %d bytes)", cat.ObjectCount(), st.WAL.LastSeq, st.WAL.Size)
	return cat, nil
}

func loadSchema(path string) (*xmlschema.Schema, error) {
	if path == "" {
		return xmlschema.LEAD()
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".xsd") {
		return xmlschema.ParseXSD(path, string(data), "")
	}
	return xmlschema.ParseDSL(path, string(data))
}

// withProfiling mounts the net/http/pprof handlers and the expvar
// dump in front of the service mux. Opt-in via -pprof: the profiling
// endpoints expose stack traces and heap contents, which a metadata
// service should not serve by default.
func withProfiling(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/", next)
	return mux
}

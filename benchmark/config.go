package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/gridmeta/hybridcat/internal/workload"
)

// The four workloads, in the order the all-workloads mode runs them.
const (
	wlFig4Cold      = "fig4_cold"
	wlSearchHot     = "search_hot"
	wlIngestDurable = "ingest_durable"
	wlMixedSharded  = "mixed_sharded"
)

var workloadNames = []string{wlFig4Cold, wlSearchHot, wlIngestDurable, wlMixedSharded}

// Fixed shape of the service under test. These are the mdserver
// defaults the benchmark states in its environment block; none is a
// tuning knob of the benchmark.
const (
	clients         = 2    // closed-loop connections, one goroutine each
	owners          = 16   // document owners; doc i belongs to owner i%16
	shards          = 4    // mixed_sharded topology
	checkpointEvery = 1024 // mdserver -checkpoint-every default
	sampleEvery     = 64   // fig4_cold: 1 response in 64 goes to the oracle
	fetchBackSample = 200  // write workloads: acked docs fetched back after quiescing
)

// sizes are the corpus and operation-set sizes. Everything is frozen
// per configuration so two commits measure the same work.
type sizes struct {
	Docs         int // preloaded corpus
	HotQueries   int // search_hot structural hot set (< DefaultCacheSize)
	HotIDs       int // search_hot fetch hot set
	MixedQueries int // mixed_sharded hot set (< DefaultCacheSize)
	SetupReps    int // set-ups per timed run; setup_s is their median
	Warmup       int // untimed warm-up operations for workloads without a hot set
	WarmIngests  int // ingest_durable's untimed warm-up documents
	TraceOps     map[string]int
	CrashDocs    int // documents in the traced crash-recovery check
	WALProbes    int // raw wal.Writer.Commit calls in the traced run
}

// fullSizes is the measured configuration. The issue asked for 8000
// documents; the driver's time cap (92 runs of every workload's
// set-up in under an hour) leaves room for 1536, which keeps the
// document shape and every set above the two clients by three orders
// of magnitude.
var fullSizes = sizes{
	Docs:         1536,
	HotQueries:   512,
	HotIDs:       1024,
	MixedQueries: 2048,
	SetupReps:    3,
	Warmup:       400,
	// Checkpoints fall every 1024 records and each stalls ingest for up
	// to a second. At this sandbox's ~325 documents/s, 375 warm-up
	// documents put the third checkpoint near second 8.3 and the fourth
	// near 11.4, so a run holds three of them unless its speed is off by
	// 15%; with none, the third sat at 9.4 s and came and went run by run.
	WarmIngests: 375,
	TraceOps: map[string]int{
		wlFig4Cold:      2000,
		wlSearchHot:     2000,
		wlIngestDurable: 800, // with the warm-up, crosses one automatic checkpoint
		wlMixedSharded:  1000,
	},
	CrashDocs: 64,
	WALProbes: 200,
}

// smokeSizes is the -smoke configuration the package test runs.
var smokeSizes = sizes{
	Docs:         160,
	HotQueries:   48,
	HotIDs:       64,
	MixedQueries: 96,
	SetupReps:    1,
	Warmup:       20,
	WarmIngests:  5,
	TraceOps: map[string]int{
		wlFig4Cold:      120,
		wlSearchHot:     120,
		wlIngestDurable: 60,
		wlMixedSharded:  80,
	},
	CrashDocs: 8,
	WALProbes: 10,
}

// corpusConfig is the document shape of the issue (about 4 KB of XML
// per document: 3 themes of 3 keys, 4 namelist groups of 8 parameters
// nested 2 deep, 50 values per parameter).
func corpusConfig(seed int64, docs int) workload.Config {
	return workload.Config{
		Seed:               seed,
		Docs:               docs,
		ThemesPerDoc:       3,
		KeysPerTheme:       3,
		DynamicAttrsPerDoc: 4,
		ParamsPerAttr:      8,
		NestDepth:          2,
		ValueCardinality:   50,
	}
}

// metricSpec mirrors one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json: the one place the metric names,
// units, directions and regression bounds are fixed.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot walks up from the working directory to the module root (the
// directory holding go.mod and BENCHMARK.json): `go run ./benchmark`
// starts there, `go test ./benchmark` one level below.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark: no go.mod above the working directory; run from the repository")
		}
		dir = parent
	}
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

package catalog

import (
	"time"

	"github.com/gridmeta/hybridcat/internal/obs"
)

// DefaultTraceDepth is the slow-trace ring capacity when Options.Metrics
// is set.
const DefaultTraceDepth = 32

// catObs groups the catalog's instrument handles. Every field is nil
// when the catalog was opened without Options.Metrics; nil handles are
// no-ops, so the pipeline code records unconditionally.
//
// Families (see DESIGN.md "Observability" for the naming scheme):
//
//	catalog_op_nanos{op}      top-level operation latency
//	query_stage_nanos{stage}  Figure-4 stage latency
//	query_criterion_rows      materialized rows (or posting-list
//	                          cardinality) per criterion probe
//	query_intersect_cardinality  per-criterion object-set size
//	                          entering the intersect stage
//	catalog_wal_commit_nanos  WAL commit wait: enqueue to durable batch
//	                          (append + fsync, plus any batch ahead)
//	catalog_checkpoints_total
//	catalog_recovery_replayed_records_total / _ops_total
//	catalog_wedged                    1 when durability refuses mutations
//	catalog_snapshot_epoch            published relstore version epoch
//	catalog_version_swaps_total       committed version publications
//	catalog_snapshot_pins_total       read-path snapshot pins
type catObs struct {
	reg  *obs.Registry
	ring *obs.TraceRing

	opEvaluate *obs.Histogram
	opSearch   *obs.Histogram
	opResponse *obs.Histogram
	opMutate   *obs.Histogram
	opRank     *obs.Histogram

	stageProbe     *obs.Histogram
	stageRollup    *obs.Histogram
	stageIntersect *obs.Histogram
	stageResponse  *obs.Histogram
	stageRank      *obs.Histogram

	textBuilds    *obs.Counter // from-scratch index builds
	textAdvances  *obs.Counter // snapshot-diff advances of an existing index
	textDeltaRows *obs.Counter // elem_data row slots those diffs visited

	criterionRows *obs.Histogram

	intersectCardinality *obs.Histogram

	walCommitNanos *obs.Histogram
	checkpoints    *obs.Counter
	replayRecords  *obs.Counter
	replayOps      *obs.Counter

	versionSwaps *obs.Counter
	snapshotPins *obs.Counter
}

// initObs resolves the catalog's instrument handles from Options.Metrics
// and builds the slow-trace ring; called once from Open, before any
// table or cache is used.
func (c *Catalog) initObs() {
	reg := c.opts.Metrics
	if reg == nil {
		return
	}
	op := func(name string) *obs.Histogram { return reg.Histogram("catalog_op_nanos", obs.L("op", name)) }
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("query_stage_nanos", obs.L("stage", name))
	}
	c.obsv = catObs{
		reg:  reg,
		ring: obs.NewTraceRing(DefaultTraceDepth),

		opEvaluate: op("evaluate"),
		opSearch:   op("search"),
		opResponse: op("response"),
		opMutate:   op("mutate"),
		opRank:     op("rank"),

		stageProbe:     stage("probe"),
		stageRollup:    stage("rollup"),
		stageIntersect: stage("intersect"),
		stageResponse:  stage("response"),
		stageRank:      stage("rank"),

		textBuilds:    reg.Counter("textindex_builds_total"),
		textAdvances:  reg.Counter("textindex_advances_total"),
		textDeltaRows: reg.Counter("textindex_delta_rows_total"),

		criterionRows: reg.Histogram("query_criterion_rows"),

		intersectCardinality: reg.Histogram("query_intersect_cardinality"),

		walCommitNanos: reg.Histogram("catalog_wal_commit_nanos"),
		checkpoints:    reg.Counter("catalog_checkpoints_total"),
		replayRecords:  reg.Counter("catalog_recovery_replayed_records_total"),
		replayOps:      reg.Counter("catalog_recovery_replayed_ops_total"),

		versionSwaps: reg.Counter("catalog_version_swaps_total"),
		snapshotPins: reg.Counter("catalog_snapshot_pins_total"),
	}
	// Epoch gauges read the atomic pointers directly, so scraping them
	// never touches a lock.
	reg.GaugeFunc("catalog_snapshot_epoch", func() int64 { return int64(c.DB.Generation()) })
	// Text-index gauges read the atomic stamped-index pointer; zero
	// until the first ranked query builds it.
	reg.GaugeFunc("textindex_docs", func() int64 {
		if st := c.text.Load(); st != nil {
			return int64(st.idx.Docs())
		}
		return 0
	})
	reg.GaugeFunc("textindex_terms", func() int64 {
		if st := c.text.Load(); st != nil {
			return int64(st.idx.Terms())
		}
		return 0
	})
	// catalog_wedged is 1 once the durability layer refuses further
	// mutations (failed post-failure cleanup left the log tail unknown);
	// /healthz reports the same condition.
	reg.GaugeFunc("catalog_wedged", func() int64 {
		if c.Wedged() != nil {
			return 1
		}
		return 0
	})
}

// Metrics returns the catalog's metrics registry, or nil when the
// catalog was opened without one.
func (c *Catalog) Metrics() *obs.Registry { return c.obsv.reg }

// Traces returns the ring of slowest recorded traces, or nil when the
// catalog was opened without a metrics registry.
func (c *Catalog) Traces() *obs.TraceRing { return c.obsv.ring }

// noopStage is the shared no-op stage closure for uninstrumented paths.
var noopStage = func(int64) {}

// beginOp opens a top-level traced operation: a trace destined for the
// slow ring plus a total-latency observation on h. The returned closure
// finishes both; with no registry everything degenerates to no-ops.
func (c *Catalog) beginOp(name string, h *obs.Histogram) (*obs.Trace, func()) {
	if c.obsv.reg == nil {
		return nil, func() {}
	}
	tr := c.obsv.ring.Begin(name)
	start := time.Now()
	return tr, func() {
		h.Observe(time.Since(start).Nanoseconds())
		c.obsv.ring.Finish(tr)
	}
}

// stageTimer times one pipeline stage into both the trace and the stage
// histogram; either (or both) may be nil.
func (c *Catalog) stageTimer(tr *obs.Trace, name string, h *obs.Histogram) func(rows int64) {
	if tr == nil && h == nil {
		return noopStage
	}
	end := tr.StartStage(name)
	start := time.Now()
	return func(rows int64) {
		end(rows)
		h.Observe(time.Since(start).Nanoseconds())
	}
}

// Package obs is the catalog's observability substrate: a dependency-free
// metrics registry (counters, gauges, log-scale histograms) with
// Prometheus-style text and JSON exposition, and a per-query trace
// recorder that stamps the Figure-4 pipeline stages with monotonic
// timings (see trace.go).
//
// Instrument handles are nil-safe: every method on a nil *Counter,
// *Gauge, *Histogram, *Trace, or *TraceRing is a no-op, so a layer holds
// plain handle fields and skips all branching — a catalog opened without
// a Registry pays only a nil check per event. Handles obtained from a
// Registry are stable: the first Counter/Gauge/Histogram call for a
// (name, labels) identity creates the instrument, later calls return the
// same one, so hot paths resolve their handles once and never touch the
// registry maps again.
//
// Metric naming follows the Prometheus conventions documented in
// DESIGN.md "Observability": snake_case families, monotonic counters
// end in _total, histograms of durations end in _nanos and use
// power-of-two bucket boundaries.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of an instrument identity.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. The zero value is ready
// to use; a nil Counter is a valid disabled counter.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a counter detached from any registry.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable signed value. The zero value is ready to use; a
// nil Gauge is a valid disabled gauge.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a gauge detached from any registry.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistogramBuckets is the fixed number of histogram buckets. Bucket i
// holds observations v with bits.Len64(v) == i, i.e. bucket 0 holds 0,
// bucket i>0 holds [2^(i-1), 2^i - 1]; the last bucket also absorbs
// everything larger. 48 buckets cover nanosecond durations up to ~39
// hours, far beyond any span the catalog records.
const HistogramBuckets = 48

// Histogram counts observations in fixed power-of-two buckets. It is
// designed for int64 nanosecond durations and row counts: Observe is a
// few atomic adds, with no locks and no allocation. The zero value is
// ready to use; a nil Histogram is a valid disabled histogram.
type Histogram struct {
	counts [HistogramBuckets]atomic.Uint64
	sum    atomic.Int64
	count  atomic.Uint64
}

// NewHistogram returns a histogram detached from any registry.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= HistogramBuckets {
		i = HistogramBuckets - 1
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i: 0 for
// bucket 0, 2^i - 1 for i > 0.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 for a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the per-bucket counts (all zero for a nil histogram).
func (h *Histogram) Buckets() [HistogramBuckets]uint64 {
	var out [HistogramBuckets]uint64
	if h == nil {
		return out
	}
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// instrument kinds.
const (
	kindCounter = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// instrument is one registered (name, labels) identity.
type instrument struct {
	name   string
	labels []Label
	id     string // rendered name{labels} identity
	kind   int
	c      *Counter
	g      *Gauge
	gf     func() int64
	h      *Histogram
}

// Registry is a concurrency-safe collection of instruments behind one
// lock. Lookups get-or-create: two callers asking for the same (name,
// labels) identity share one instrument. Every layer resolves its
// handles once at setup, so only setup and exposition take the lock. A
// nil *Registry is a valid disabled registry — every method returns a
// nil (disabled) handle.
type Registry struct {
	mu   sync.RWMutex
	ents map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ents: make(map[string]*instrument)}
}

// identity renders the canonical name{k="v",...} key. Labels are sorted
// by key so the order callers pass them in does not split identities.
func identity(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// getOrCreate returns the instrument for (name, labels), creating it
// with mk on first use. A kind mismatch with an existing registration
// panics: it is a programming error, never data-dependent.
func (r *Registry) getOrCreate(name string, labels []Label, kind int, mk func(id string, ls []Label) *instrument) *instrument {
	id := identity(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if ins := r.ents[id]; ins != nil {
		if ins.kind != kind {
			panic("obs: instrument " + id + " re-registered with a different kind")
		}
		return ins
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	ins := mk(id, ls)
	ins.name, ins.labels, ins.id, ins.kind = name, ls, id, kind
	r.ents[id] = ins
	return ins
}

// Counter returns the shared counter for (name, labels), creating it on
// first use. Returns nil (a disabled counter) on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, labels, kindCounter, func(string, []Label) *instrument {
		return &instrument{c: NewCounter()}
	}).c
}

// Gauge returns the shared gauge for (name, labels), creating it on
// first use. Returns nil (a disabled gauge) on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, labels, kindGauge, func(string, []Label) *instrument {
		return &instrument{g: NewGauge()}
	}).g
}

// GaugeFunc registers fn as a gauge sampled at exposition time. A second
// registration for the same identity replaces the callback. No-op on a
// nil registry.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	ins := r.getOrCreate(name, labels, kindGaugeFunc, func(string, []Label) *instrument {
		return &instrument{}
	})
	r.mu.Lock()
	ins.gf = fn
	r.mu.Unlock()
}

// Histogram returns the shared histogram for (name, labels), creating it
// on first use. Returns nil (a disabled histogram) on a nil registry.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, labels, kindHistogram, func(string, []Label) *instrument {
		return &instrument{h: NewHistogram()}
	}).h
}

// gaugeFuncValue samples a GaugeFunc, reading its callback under the
// read lock.
func (r *Registry) gaugeFuncValue(ins *instrument) int64 {
	r.mu.RLock()
	fn := ins.gf
	r.mu.RUnlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// all returns every instrument sorted by identity.
func (r *Registry) all() []*instrument {
	r.mu.RLock()
	out := make([]*instrument, 0, len(r.ents))
	for _, ins := range r.ents {
		out = append(out, ins)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// labelPrefix renders the non-le labels of an instrument for a
// histogram series, ready to be extended with an le pair.
func labelPrefix(ls []Label) string {
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// WriteProm renders the Prometheus text exposition format (version
// 0.0.4): one # TYPE line per family, counter/gauge samples as
// name{labels} value, histograms as cumulative _bucket series over the
// non-empty power-of-two bounds plus +Inf, with _sum and _count.
// No-op on a nil registry.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	typed := make(map[string]bool)
	for _, ins := range r.all() {
		if !typed[ins.name] {
			typed[ins.name] = true
			t := "gauge"
			switch ins.kind {
			case kindCounter:
				t = "counter"
			case kindHistogram:
				t = "histogram"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", ins.name, t)
		}
		switch ins.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", ins.id, ins.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %d\n", ins.id, ins.g.Value())
		case kindGaugeFunc:
			fmt.Fprintf(&b, "%s %d\n", ins.id, r.gaugeFuncValue(ins))
		case kindHistogram:
			prefix := labelPrefix(ins.labels)
			if prefix != "" {
				prefix += ","
			}
			counts := ins.h.Buckets()
			var cum uint64
			for i, c := range counts {
				cum += c
				if c == 0 {
					continue
				}
				fmt.Fprintf(&b, "%s_bucket{%sle=\"%d\"} %d\n", ins.name, prefix, BucketBound(i), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d\n", ins.name, prefix, cum)
			fmt.Fprintf(&b, "%s_sum{%s} %d\n", ins.name, labelPrefix(ins.labels), ins.h.Sum())
			fmt.Fprintf(&b, "%s_count{%s} %d\n", ins.name, labelPrefix(ins.labels), ins.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// HistogramState is the JSON rendering of one histogram.
type HistogramState struct {
	Count   uint64            `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets map[string]uint64 `json:"buckets,omitempty"` // upper bound -> count (non-cumulative)
}

// State is the JSON rendering of the registry: identity -> value for
// counters and gauges, identity -> HistogramState for histograms.
type State struct {
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramState `json:"histograms,omitempty"`
}

// Export captures the registry as a State (empty on a nil registry).
func (r *Registry) Export() State {
	st := State{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramState{},
	}
	if r == nil {
		return st
	}
	for _, ins := range r.all() {
		switch ins.kind {
		case kindCounter:
			st.Counters[ins.id] = ins.c.Value()
		case kindGauge:
			st.Gauges[ins.id] = ins.g.Value()
		case kindGaugeFunc:
			st.Gauges[ins.id] = r.gaugeFuncValue(ins)
		case kindHistogram:
			hs := HistogramState{Count: ins.h.Count(), Sum: ins.h.Sum(), Buckets: map[string]uint64{}}
			for i, c := range ins.h.Buckets() {
				if c != 0 {
					hs.Buckets[fmt.Sprint(BucketBound(i))] = c
				}
			}
			st.Histograms[ins.id] = hs
		}
	}
	return st
}

// WriteJSON renders the registry as indented JSON. No-op on nil.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Export())
}

// Snapshot flattens the registry into identity -> float64, with
// histograms contributing identity_count and identity_sum entries. Bench
// harnesses diff two snapshots to attach instrument deltas to a run.
// Empty on a nil registry.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	for _, ins := range r.all() {
		switch ins.kind {
		case kindCounter:
			out[ins.id] = float64(ins.c.Value())
		case kindGauge:
			out[ins.id] = float64(ins.g.Value())
		case kindGaugeFunc:
			out[ins.id] = float64(r.gaugeFuncValue(ins))
		case kindHistogram:
			out[ins.id+"_count"] = float64(ins.h.Count())
			out[ins.id+"_sum"] = float64(ins.h.Sum())
		}
	}
	return out
}

// DiffSnapshots returns after-minus-before for every key in after,
// dropping zero deltas. Keys absent from before count from zero.
func DiffSnapshots(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// Package bench is the experiment harness: it builds identical corpora
// in every store, measures the operations each experiment defines, and
// renders the table the experiment's paper claim predicts. EXPERIMENTS.md
// records the expected vs. measured shapes; cmd/mdbench prints the same
// tables from the command line, and bench_test.go exposes each experiment
// as a testing.B benchmark.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/gridmeta/hybridcat/internal/baseline"
	"github.com/gridmeta/hybridcat/internal/baseline/clobonly"
	"github.com/gridmeta/hybridcat/internal/baseline/edgetable"
	"github.com/gridmeta/hybridcat/internal/baseline/inlining"
	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/nativexml"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
)

// Table is one experiment's printable result.
type Table struct {
	ID      string
	Title   string
	Claim   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, stringifying each cell.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = fmtDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// StoreKind names the comparison systems.
type StoreKind string

// Store kinds.
const (
	KindHybrid    StoreKind = "hybrid"
	KindInlining  StoreKind = "inlining"
	KindEdge      StoreKind = "edge"
	KindClob      StoreKind = "clob"
	KindNativeXML StoreKind = "nativexml"
)

// AllKinds lists every comparison system.
var AllKinds = []StoreKind{KindHybrid, KindInlining, KindEdge, KindClob, KindNativeXML}

// NewStore builds an empty store of the given kind over the LEAD schema,
// with the workload's dynamic definitions registered where applicable.
func NewStore(kind StoreKind, g *workload.Generator) (baseline.Store, error) {
	switch kind {
	case KindHybrid:
		return openHybrid(g, catalog.Options{})
	case KindInlining:
		return inlining.New(g.Schema)
	case KindEdge:
		return edgetable.New(g.Schema)
	case KindClob:
		return clobonly.New(g.Schema)
	case KindNativeXML:
		return nativexml.New(g.Schema, "themekey", "attrlabl", "attrv", "enttypl"), nil
	}
	return nil, fmt.Errorf("bench: unknown store kind %q", kind)
}

// openHybrid opens an empty hybrid catalog with opts and registers the
// workload's dynamic definitions.
func openHybrid(g *workload.Generator, opts catalog.Options) (baseline.Store, error) {
	c, err := catalog.Open(g.Schema, opts)
	if err != nil {
		return nil, err
	}
	if err := g.RegisterDefinitions(c); err != nil {
		return nil, err
	}
	return baseline.Adapter{C: c}, nil
}

// loadStore fills a fresh store of the given kind with the corpus,
// returning the store and the total ingest wall time.
func loadStore(kind StoreKind, g *workload.Generator, docs []*xmldoc.Node) (baseline.Store, time.Duration, error) {
	st, err := NewStore(kind, g)
	if err != nil {
		return nil, 0, err
	}
	return fill(st, docs)
}

// fill ingests docs into st, returning st and the total ingest wall time.
func fill(st baseline.Store, docs []*xmldoc.Node) (baseline.Store, time.Duration, error) {
	start := time.Now()
	for _, d := range docs {
		if _, err := st.Ingest("bench", d); err != nil {
			return nil, 0, fmt.Errorf("%s ingest: %w", st.Name(), err)
		}
	}
	return st, time.Since(start), nil
}

// median of repeated timings of f; f runs once for warmup first.
func median(runs int, f func() error) (time.Duration, error) {
	if err := f(); err != nil {
		return 0, err
	}
	times := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// Options tunes experiment scale; Quick shrinks corpora for smoke runs.
type Options struct {
	Quick bool
}

func (o Options) scale(n int) int {
	if o.Quick {
		n /= 5
		if n < 20 {
			n = 20
		}
	}
	return n
}

func (o Options) runs() int {
	if o.Quick {
		return 3
	}
	return 9
}

package bench

import (
	"fmt"
	"strconv"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/relstore"
	"github.com/gridmeta/hybridcat/internal/workload"
)

// A2ClobGranularity ablates CLOB granularity: per-attribute CLOBs
// (hybrid) vs one whole-document CLOB, on selective retrieval and
// storage.
func A2ClobGranularity(o Options) (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "CLOB granularity: per-attribute vs whole-document",
		Claim:   "§2: per-attribute CLOBs keep responses buildable by set operations without reparsing documents",
		Columns: []string{"metric", "per-attribute (hybrid)", "whole-doc (clob)"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(300)
	g := workload.New(cfg)
	corpus := g.Corpus()
	hybrid, _, err := loadStore(KindHybrid, g, corpus)
	if err != nil {
		return nil, err
	}
	clob, _, err := loadStore(KindClob, g, corpus)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, 50)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	hFetch, err := median(o.runs(), func() error { _, err := hybrid.Fetch(ids); return err })
	if err != nil {
		return nil, err
	}
	cFetch, err := median(o.runs(), func() error { _, err := clob.Fetch(ids); return err })
	if err != nil {
		return nil, err
	}
	t.AddRow("fetch 50 docs", hFetch, cFetch)
	qi := 0
	hQry, err := median(o.runs(), func() error {
		qi++
		_, err := hybrid.Evaluate(g.PointQuery(qi, qi, qi))
		return err
	})
	if err != nil {
		return nil, err
	}
	qi = 0
	cQry, err := median(o.runs(), func() error {
		qi++
		_, err := clob.Evaluate(g.PointQuery(qi, qi, qi))
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("point query", hQry, cQry)
	t.AddRow("storage bytes", hybrid.StorageBytes(), clob.StorageBytes())
	t.Notes = append(t.Notes, "expected shape: whole-doc CLOB fetches marginally faster (one string) but queries orders slower (parse every doc); hybrid pays bounded extra storage")
	return t, nil
}

// A3TypedColumns ablates the dual string/numeric element columns: range
// queries through the typed nval index vs a scan that parses strings.
func A3TypedColumns(o Options) (*Table, error) {
	t := &Table{
		ID:      "A3",
		Title:   "typed numeric column vs string-scan for range predicates",
		Claim:   "shredding values into typed columns makes range criteria indexable",
		Columns: []string{"selectivity", "nval-index", "string-scan", "speedup"},
	}
	cfg := workload.Default()
	cfg.Docs = o.scale(600)
	g := workload.New(cfg)
	c, err := catalog.Open(g.Schema, catalog.Options{})
	if err != nil {
		return nil, err
	}
	if err := g.RegisterDefinitions(c); err != nil {
		return nil, err
	}
	for _, d := range g.Corpus() {
		if _, err := c.Ingest("bench", d); err != nil {
			return nil, err
		}
	}
	elemT := c.DB.MustTable(catalog.TElemData)
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		q := g.RangeQuery(0, 0, frac)
		indexed, err := median(o.runs(), func() error {
			_, err := c.Evaluate(q)
			return err
		})
		if err != nil {
			return nil, err
		}
		// String-scan simulation: no numeric column — every elem_data row
		// is scanned and its string value parsed before comparing.
		hi := float64(cfg.ValueCardinality) * 250 * frac
		scan, err := median(o.runs(), func() error {
			count := 0
			elemT.Scan(func(_ int64, r relstore.Row) bool {
				if f, perr := strconv.ParseFloat(r[3].S, 64); perr == nil && f < hi {
					count++
				}
				return true
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f%%", frac*100), indexed, scan, ratio(int64(scan), int64(indexed)))
	}
	t.Notes = append(t.Notes, "expected shape: typed index wins at low selectivity; the gap narrows as the range widens")
	return t, nil
}

package catalog_test

import (
	"fmt"
	"testing"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/faultio"
	"github.com/gridmeta/hybridcat/internal/workload"
	"github.com/gridmeta/hybridcat/internal/xmldoc"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// TestTreeIngestReplayEqualsLive: Ingest and AddAttribute take trees,
// and the log carries each tree's serialization, which recovery parses
// again. Trees built in code — every document of a W1-shaped generator,
// Figure 3, the lenient document on a lenient catalog, and theme and
// detailed fragments (keys holding markup characters among them) — must
// recover from the log alone to the live catalog's state.
func TestTreeIngestReplayEqualsLive(t *testing.T) {
	g := workload.New(workload.Config{
		Seed: 1, Docs: 64, ThemesPerDoc: 3, KeysPerTheme: 3, DynamicAttrsPerDoc: 4,
		ParamsPerAttr: 8, NestDepth: 2, ValueCardinality: 50,
	})
	theme := func(key string) *xmldoc.Node {
		return xmldoc.NewNode("theme").Append(xmldoc.NewLeaf("themekt", "tree"), xmldoc.NewLeaf("themekey", key))
	}
	type feeder func(t *testing.T, ingest func(*xmldoc.Node) int64, add func(int64, *xmldoc.Node))
	for _, tc := range []struct {
		name string
		opts catalog.Options
		feed feeder
	}{
		{"w1-figure3", catalog.Options{AutoRegister: true}, func(t *testing.T, ingest func(*xmldoc.Node) int64, add func(int64, *xmldoc.Node)) {
			for i := 0; i < g.Config().Docs; i++ {
				id := ingest(g.Document(i))
				if i%8 == 0 {
					add(id, theme(fmt.Sprintf("key %d & <%d>", i, i)))
				}
			}
			fig3, err := xmldoc.ParseString(xmlschema.Figure3Document)
			if err != nil {
				t.Fatal(err)
			}
			id := ingest(fig3)
			detailed := fig3.FindAll("detailed")[0].Clone()
			detailed.Child("enttyp").Child("enttypl").Text = "tree-grid"
			add(id, detailed)
		}},
		{"lenient", catalog.Options{AutoRegister: true, Lenient: true}, func(t *testing.T, ingest func(*xmldoc.Node) int64, add func(int64, *xmldoc.Node)) {
			id := ingest(catalog.LenientDoc(t))
			add(id, theme("lenient").Append(xmldoc.NewLeaf("themenote", "undeclared")))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const path = "tree.wal"
			mem := faultio.NewMemFS()
			c, err := catalog.OpenDurable(g.Schema, tc.opts, catalog.DurabilityOptions{FS: mem, WALPath: path})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.RegisterDefinitions(c); err != nil {
				t.Fatal(err)
			}
			tc.feed(t, func(doc *xmldoc.Node) int64 {
				id, err := c.Ingest("lab", doc)
				if err != nil {
					t.Fatal(err)
				}
				return id
			}, func(id int64, frag *xmldoc.Node) {
				if err := c.AddAttribute(id, "lab", frag); err != nil {
					t.Fatal(err)
				}
			})
			logOnly := faultio.NewMemFS()
			logOnly.SetBytes(path, mem.Bytes(path))
			rec, err := catalog.OpenDurable(g.Schema, catalog.Options{}, catalog.DurabilityOptions{FS: logOnly, WALPath: path})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := catalog.StateFingerprint(rec), catalog.StateFingerprint(c); got != want {
				t.Fatalf("log-only recovery diverges from the live catalog:\n%s", catalog.DiffFingerprint(want, got))
			}
		})
	}
}

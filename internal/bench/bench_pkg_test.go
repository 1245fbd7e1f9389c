package bench

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "T",
		Title:   "demo",
		Claim:   "c",
		Columns: []string{"a", "bb"},
	}
	tab.AddRow("x", 5)
	tab.AddRow(1500*time.Microsecond, 0.5)
	out := tab.String()
	for _, want := range []string{"== T: demo ==", "claim: c", "a", "bb", "1.50ms", "0.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFmtDuration(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond:  "500ns",
		1500 * time.Nanosecond: "1.5µs",
		2 * time.Millisecond:   "2.00ms",
		3 * time.Second:        "3.00s",
	}
	for d, want := range cases {
		if got := fmtDuration(d); got != want {
			t.Errorf("fmtDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestRegistryAndUnknown(t *testing.T) {
	// The paper's figures, claims and ablations, plus the two durability
	// experiments no over-the-wire workload covers.
	want := []string{"A2", "A3", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "F1", "F2", "F3", "F4", "R1", "R2"}
	if ids := IDs(); strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("experiments = %v, want %v", ids, want)
	}
	if _, ok := Lookup("F1"); !ok {
		t.Error("F1 missing")
	}
	if _, err := Run("nope", Options{Quick: true}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestFigureExperiments runs the four figure reproductions and checks
// their assertions hold.
func TestFigureExperiments(t *testing.T) {
	for _, id := range []string{"F1", "F2", "F3", "F4"} {
		tab, err := Run(id, Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		out := tab.String()
		switch id {
		case "F1":
			if !strings.Contains(out, "response equals original  true") {
				t.Errorf("F1 round trip failed:\n%s", out)
			}
		case "F2":
			if !strings.Contains(out, "detailed [dynamic attribute]") {
				t.Errorf("F2 missing dynamic attribute row:\n%s", out)
			}
		case "F3":
			for _, want := range []string{`grid.dx[`, "grid-stretching -> grid (depth 1)", `-> attribute "grid"`} {
				if !strings.Contains(out, want) {
					t.Errorf("F3 missing %q:\n%s", want, out)
				}
			}
		case "F4":
			if !strings.Contains(out, "agreement") || !strings.Contains(out, "true") {
				t.Errorf("F4 pipeline/path disagreement:\n%s", out)
			}
		}
	}
}

// TestQuickExperimentsRun smoke-runs every measured experiment at Quick
// scale and sanity-checks the table shape.
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still ingest corpora; skipped in -short")
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "A2", "A3"} {
		tab, err := Run(id, Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		if len(tab.Columns) < 2 {
			t.Errorf("%s: columns = %v", id, tab.Columns)
		}
		for _, r := range tab.Rows {
			if len(r) != len(tab.Columns) {
				t.Errorf("%s: ragged row %v", id, r)
			}
		}
		t.Logf("\n%s", tab)
	}
}

package bench

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot is the module root relative to this package's directory.
const repoRoot = "../.."

// rootDocs are the root-level Markdown files that describe the current
// program. The other root-level Markdown files are history or reference
// material (change log, roadmap, paper notes); they may name retired
// experiments and records, so the cross-reference checks skip them.
var rootDocs = map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true, "OPERATIONS.md": true}

var (
	expHeadingRE = regexp.MustCompile(`(?m)^### ([A-Z]+[0-9]+) —`)
	indexRowRE   = regexp.MustCompile(`(?m)^\| ([A-Z]+[0-9]+) \|`)
	mdbenchExpRE = regexp.MustCompile(`mdbench\b[^\n` + "`" + `]*?-exp[ =]([A-Za-z0-9]+(?:,[A-Za-z0-9]+)*)`)
	benchJSONRE  = regexp.MustCompile(`BENCH_[a-z0-9_]+\.json`)
)

func readRepoFile(t *testing.T, rel string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot, rel))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// docFiles returns every Markdown file in the repository (root-level
// files outside rootDocs excluded) plus the Makefile and the CI workflow, keyed by their path
// relative to the module root.
func docFiles(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{
		"Makefile":                 readRepoFile(t, "Makefile"),
		".github/workflows/ci.yml": readRepoFile(t, ".github/workflows/ci.yml"),
	}
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		rel, err := filepath.Rel(repoRoot, path)
		if err != nil {
			return err
		}
		if filepath.Dir(rel) == "." && !rootDocs[rel] {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDocsNameRegisteredExperiments: every experiment the documentation
// describes or tells the reader to run is one mdbench can run, so a
// retired experiment cannot linger in the docs or come back without a
// registry entry.
func TestDocsNameRegisteredExperiments(t *testing.T) {
	check := func(where, id string) {
		if _, ok := Lookup(id); !ok {
			t.Errorf("%s names experiment %q, which is not registered (have %v)", where, id, IDs())
		}
	}
	headings := expHeadingRE.FindAllStringSubmatch(readRepoFile(t, "EXPERIMENTS.md"), -1)
	if len(headings) == 0 {
		t.Fatal("EXPERIMENTS.md: no '### <ID> —' headings found")
	}
	for _, m := range headings {
		check("EXPERIMENTS.md heading", m[1])
	}
	design := readRepoFile(t, "DESIGN.md")
	start := strings.Index(design, "## Per-experiment index")
	if start < 0 {
		t.Fatal("DESIGN.md: no per-experiment index")
	}
	rows := indexRowRE.FindAllStringSubmatch(design[start:], -1)
	if len(rows) != len(IDs()) {
		t.Errorf("DESIGN.md experiment index has %d rows, registry has %d experiments", len(rows), len(IDs()))
	}
	for _, m := range rows {
		check("DESIGN.md experiment index", m[1])
	}
	for name, text := range docFiles(t) {
		for _, m := range mdbenchExpRE.FindAllStringSubmatch(text, -1) {
			for _, id := range strings.Split(m[1], ",") {
				check(name+" `"+m[0]+"`", id)
			}
		}
	}
}

// TestBenchRecordsMatchRegistry: every checked-in BENCH_*.json record
// holds tables of registered experiments, and every record the docs
// cite exists.
func TestBenchRecordsMatchRegistry(t *testing.T) {
	records, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range records {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tabs []struct{ ID string }
		if err := json.Unmarshal(data, &tabs); err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if len(tabs) == 0 {
			t.Errorf("%s: no tables", filepath.Base(path))
		}
		for _, tab := range tabs {
			if _, ok := Lookup(tab.ID); !ok {
				t.Errorf("%s records experiment %q, which is not registered", filepath.Base(path), tab.ID)
			}
		}
	}
	for name, text := range docFiles(t) {
		for _, rec := range benchJSONRE.FindAllString(text, -1) {
			if _, err := os.Stat(filepath.Join(repoRoot, rec)); err != nil {
				t.Errorf("%s cites %s, which does not exist", name, rec)
			}
		}
	}
}

package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// goTestRunRE matches a `go test` command line with a quoted -run
	// pattern. An unquoted -run (`-run XXX`, `-run=XXX`) deliberately
	// names no test, so that only benchmarks or a fuzzer run.
	goTestRunRE = regexp.MustCompile(`(?m)(?:\$\(GO\)|\bgo) test\b[^\n]*?-run '([^']*)'([^\n]*)`)
	testFuncRE  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// TestMakefileRunPatternsNameTests: in every `go test … -run '<pattern>'
// <packages>` line of the Makefile and the CI workflow, each top-level
// alternative of the pattern matches at least one Test, Fuzz or
// Benchmark function of those packages, so a renamed or deleted test
// cannot leave a verification target silently running less than its
// comment says.
func TestMakefileRunPatternsNameTests(t *testing.T) {
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		for _, m := range goTestRunRE.FindAllStringSubmatch(readRepoFile(t, file), -1) {
			var pkgs, names []string
			for _, pkg := range strings.Fields(m[2]) {
				if pkg == "." || strings.HasPrefix(pkg, "./") {
					pkgs = append(pkgs, pkg)
					names = append(names, testFuncs(t, pkg)...)
				}
			}
			if len(names) == 0 {
				t.Errorf("%s: -run '%s' names no package with tests", file, m[1])
				continue
			}
			for _, alt := range topLevelAlternatives(m[1]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run '%s': alternative %q: %v", file, m[1], alt, err)
					continue
				}
				matched := false
				for _, name := range names {
					if re.MatchString(name) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s: -run '%s': alternative %q matches no test in %s", file, m[1], alt, strings.Join(pkgs, " "))
				}
			}
		}
	}
}

// topLevelAlternatives splits a regexp at the | outside parentheses.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// testFuncs returns the Test, Fuzz and Benchmark function names of the
// package at pkg, a path relative to the module root as go test takes
// it ("./..." covers every package below).
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkg, "/...")
	root := filepath.Join(repoRoot, dir)
	var names []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && !recursive {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(data), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

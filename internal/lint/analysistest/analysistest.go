// Package analysistest runs an analyzer over fixture packages and compares
// its findings against `// want "regexp"` expectations in the fixture source
// — the same contract as golang.org/x/tools/go/analysis/analysistest, built
// on the in-repo framework.
//
// Fixtures live under testdata/src/<importpath>/. A Run call may name several
// fixture packages; they are typechecked and analyzed in the given order with
// a shared fact store, so cross-package analyzers (applydet) can be tested
// end to end: list the fact-exporting package first, its importer second.
// Standard-library imports in fixtures resolve through build-cache export
// data via the go command.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rdmaagreement/internal/lint/analysis"
	"rdmaagreement/internal/lint/checker"
	"rdmaagreement/internal/lint/load"
)

// TestData returns the calling test's shared fixture root,
// internal/lint/testdata (the analyzers' test packages all sit one level
// below internal/lint).
func TestData() string {
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		return "../testdata"
	}
	return filepath.Join(filepath.Dir(file), "..", "testdata")
}

// Run analyzes the fixture packages in order with a shared fact store and
// reports every mismatch between findings and // want expectations through t.
func Run(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()

	type fixture struct {
		path  string
		files []*ast.File
		names []string
	}
	var fixtures []*fixture
	std := make(map[string]bool)
	local := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		local[p] = true
	}
	for _, p := range pkgs {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(p))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("fixture %s: %v", p, err)
		}
		fx := &fixture{path: p}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			name := filepath.Join(dir, e.Name())
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			fx.files = append(fx.files, f)
			fx.names = append(fx.names, name)
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !local[path] {
					std[path] = true
				}
			}
		}
		if len(fx.files) == 0 {
			t.Fatalf("fixture %s: no Go files in %s", p, dir)
		}
		fixtures = append(fixtures, fx)
	}

	imp, err := stdImporter(fset, std)
	if err != nil {
		t.Fatal(err)
	}
	facts := checker.NewFacts()
	want := make(map[string][]*expectation) // file:line → pending expectations
	var findings []checker.Finding
	for _, fx := range fixtures {
		pkg, info, err := load.Check(fset, imp, fx.path, "", fx.files)
		if err != nil {
			t.Fatalf("fixture %s: %v", fx.path, err)
		}
		imp.local[fx.path] = pkg
		for i, f := range fx.files {
			collectWant(t, fset, fx.names[i], f, want)
		}
		found, err := checker.Analyze(checker.Target{Fset: fset, Files: fx.files, Pkg: pkg, Info: info}, analyzers, facts)
		if err != nil {
			t.Fatalf("fixture %s: %v", fx.path, err)
		}
		findings = append(findings, found...)
	}

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		if !consume(want[key], f.Message) {
			t.Errorf("unexpected finding at %s: %s (%s)", key, f.Message, f.Analyzer)
		}
	}
	var missed []string
	for key, exps := range want {
		for _, e := range exps {
			if !e.matched {
				missed = append(missed, fmt.Sprintf("%s: no finding matched %q", key, e.re.String()))
			}
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Error(m)
	}
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

func consume(exps []*expectation, message string) bool {
	for _, e := range exps {
		if !e.matched && e.re.MatchString(message) {
			e.matched = true
			return true
		}
	}
	return false
}

// collectWant parses `// want "re" "re"` comments, keyed by file:line.
func collectWant(t *testing.T, fset *token.FileSet, filename string, f *ast.File, want map[string][]*expectation) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if strings.HasPrefix(text, "/*") {
				text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
			}
			text = strings.TrimSpace(text)
			idx := strings.Index(text, "want ")
			if idx != 0 {
				continue
			}
			line := fset.Position(c.Pos()).Line
			key := fmt.Sprintf("%s:%d", filename, line)
			rest := strings.TrimSpace(text[idx+len("want "):])
			for rest != "" {
				var lit string
				var err error
				switch rest[0] {
				case '"':
					end := findStringEnd(rest)
					if end < 0 {
						t.Fatalf("%s: unterminated want pattern: %s", key, rest)
					}
					lit, err = strconv.Unquote(rest[:end])
					rest = strings.TrimSpace(rest[end:])
				case '`':
					end := strings.Index(rest[1:], "`")
					if end < 0 {
						t.Fatalf("%s: unterminated want pattern: %s", key, rest)
					}
					lit = rest[1 : 1+end]
					rest = strings.TrimSpace(rest[2+end:])
				default:
					t.Fatalf("%s: malformed want pattern: %s", key, rest)
				}
				if err != nil {
					t.Fatalf("%s: bad want pattern: %v", key, err)
				}
				re, err := regexp.Compile(lit)
				if err != nil {
					t.Fatalf("%s: bad want regexp: %v", key, err)
				}
				want[key] = append(want[key], &expectation{re: re})
			}
		}
	}
}

// findStringEnd returns the index just past the closing quote of the
// double-quoted Go string literal at the start of s, or -1.
func findStringEnd(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// fixtureImporter resolves fixture packages locally and standard-library
// imports through export data.
type fixtureImporter struct {
	local map[string]*types.Package
	gc    types.Importer
}

func (f *fixtureImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := f.local[path]; ok {
		return pkg, nil
	}
	if f.gc == nil {
		return nil, fmt.Errorf("fixture imports %q but no std importer is available", path)
	}
	return f.gc.Import(path)
}

// stdImporter builds an export-data importer for the std packages the
// fixtures import, via one `go list -export -deps` run.
func stdImporter(fset *token.FileSet, std map[string]bool) (*fixtureImporter, error) {
	fi := &fixtureImporter{local: make(map[string]*types.Package)}
	if len(std) == 0 {
		return fi, nil
	}
	paths := make([]string, 0, len(std))
	for p := range std {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	imp, err := load.ExportImporter(fset, paths)
	if err != nil {
		return nil, err
	}
	fi.gc = imp
	return fi, nil
}

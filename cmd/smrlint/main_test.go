package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestAnalyzersListedOnce fails unless the suite, the fixture directories
// under internal/lint/testdata/src and README's "Static analysis" table
// name the same analyzers, so adding or removing one cannot leave a stale
// list behind.
func TestAnalyzersListedOnce(t *testing.T) {
	var suite []string
	for _, a := range analyzers {
		suite = append(suite, a.Name)
	}
	slices.Sort(suite)

	entries, err := os.ReadDir(filepath.Join("..", "..", "internal", "lint", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []string
	for _, e := range entries {
		if e.IsDir() {
			fixtures = append(fixtures, e.Name())
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Static analysis\n")
	section, _, _ = strings.Cut(section, "\n## ")
	_, rows, _ := strings.Cut(section, "| Analyzer | Invariant it enforces |\n|---|---|\n")
	var table []string
	for _, row := range strings.Split(rows, "\n") {
		name, ok := strings.CutPrefix(row, "| `")
		if !ok {
			break
		}
		name, _, _ = strings.Cut(name, "`")
		table = append(table, name)
	}
	slices.Sort(table)

	if !slices.Equal(suite, fixtures) || !slices.Equal(suite, table) {
		t.Fatalf("analyzers disagree: suite %v, fixture directories %v, README table %v", suite, fixtures, table)
	}
}

// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: Analyzer, Pass, Diagnostic and
// object facts. The repository builds hermetically (no module downloads), so
// smrlint cannot depend on x/tools; this shim keeps the analyzers written
// against the same shapes, making a later swap to the real framework a
// mechanical import change.
//
// Only the subset smrlint needs is implemented: single-pass analyzers over a
// typechecked package, position-based diagnostics, and gob-serializable
// object facts on package-level objects (the cross-package channel applydet
// uses to see that a function another package exports is nondeterministic).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis: a named check over a typechecked
// package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //smrlint:ignore directives.
	Name string
	// Doc is the analyzer's documentation, shown by cmd/smrlint -help.
	Doc string
	// Run applies the analyzer to a package.
	Run func(*Pass) (any, error)
	// FactTypes lists the fact types the analyzer exports or imports. Each
	// must be a pointer to a gob-encodable struct. Declaring them here is
	// what lets drivers serialize facts across processes (vet -vettool mode).
	FactTypes []Fact
}

// A Fact is a datum attached to a package-level object by one package's
// analysis and visible to the analysis of importing packages. Facts must be
// pointers to gob-encodable structs.
type Fact interface {
	// AFact marks the type as a fact and is otherwise unused.
	AFact()
}

// A Pass is one analyzer applied to one package: the syntax, the type
// information, and the reporting and fact channels back to the driver.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// Facts is the driver's fact store. Nil when the driver does not
	// support facts; the accessors below treat that as an empty store.
	Facts FactStore
}

// FactStore is the driver-side half of fact plumbing.
type FactStore interface {
	// ExportObjectFact attaches fact to obj, an object of the package under
	// analysis.
	ExportObjectFact(obj types.Object, fact Fact)
	// ImportObjectFact copies into fact the fact of the same concrete type
	// previously attached to obj (by this or an earlier pass), reporting
	// whether one existed.
	ImportObjectFact(obj types.Object, fact Fact) bool
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact attaches fact to obj for importing packages to see.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.Facts != nil {
		p.Facts.ExportObjectFact(obj, fact)
	}
}

// ImportObjectFact reads the fact of fact's concrete type attached to obj,
// reporting whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.Facts != nil && p.Facts.ImportObjectFact(obj, fact)
}

// A Diagnostic is one finding: a position and a message. Category is the
// analyzer name (filled by the driver if empty).
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Package directive parses the //smrlint:* comment vocabulary shared by the
// analyzers and the drivers:
//
//	//smrlint:deterministic              — function is an extra applydet root
//	//smrlint:holds mu                   — function runs with the receiver's mu held
//	//smrlint:ignore <analyzer> <reason> — suppress one finding, reason required
//	// guarded by mu                     — field is protected by the sibling mutex mu
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

const prefix = "//smrlint:"

// Marker scans a comment group for //smrlint:<name> and returns the text
// after the name, trimmed. A group may carry several markers; the first with
// the given name wins.
func Marker(cg *ast.CommentGroup, name string) (args string, ok bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		if rest, found := cutMarker(c.Text, name); found {
			return rest, true
		}
	}
	return "", false
}

func cutMarker(text, name string) (string, bool) {
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := text[len(prefix):]
	if rest == name {
		return "", true
	}
	if strings.HasPrefix(rest, name) && (rest[len(name)] == ' ' || rest[len(name)] == '\t') {
		return strings.TrimSpace(rest[len(name):]), true
	}
	return "", false
}

// GuardedBy parses the "// guarded by <mu>" convention off a struct field's
// comment or doc group, returning the named sibling mutex field.
func GuardedBy(cg *ast.CommentGroup) (mu string, ok bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		const tag = "guarded by "
		if i := strings.Index(text, tag); i >= 0 {
			rest := strings.TrimSpace(text[i+len(tag):])
			if f := strings.Fields(rest); len(f) > 0 {
				return strings.TrimRight(f[0], ".,;:"), true
			}
		}
	}
	return "", false
}

// An Ignore is one //smrlint:ignore directive.
type Ignore struct {
	Analyzer string    // analyzer the suppression applies to
	Reason   string    // justification; the drivers reject empty ones
	Pos      token.Pos // position of the directive comment
	Line     int       // line the directive sits on
	File     string    // file name
}

// Ignores collects every //smrlint:ignore directive in files. A directive
// suppresses findings of its analyzer on the same line and on the line
// directly below (so it can ride as a trailing comment or sit above the
// flagged statement).
func Ignores(fset *token.FileSet, files []*ast.File) []Ignore {
	var out []Ignore
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, found := cutMarker(c.Text, "ignore")
				if !found {
					continue
				}
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				out = append(out, Ignore{
					Analyzer: name,
					Reason:   strings.TrimSpace(reason),
					Pos:      c.Pos(),
					Line:     pos.Line,
					File:     pos.Filename,
				})
			}
		}
	}
	return out
}

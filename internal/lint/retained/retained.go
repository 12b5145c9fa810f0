// Package retained implements the smrlint analyzer enforcing the read-only
// aliasing contract on command and snapshot buffers: Entry.Cmd (and the byte
// slice handed to Restore) are borrowed from the log's receive path and are
// only valid for the duration of the call. Callers must not
//
//   - store them (or a reslice of them) in a struct field reachable through a
//     pointer, a map, a slice, a package-level variable, or a channel;
//   - mutate their elements, directly or via copy.
//
// Copying is the sanctioned escape hatch: string(cmd), append(dst, cmd...),
// and copy(dst, cmd) all produce owned data and end the borrow. Assigning
// into a field of a local value-typed struct is likewise fine — the copy dies
// with the frame.
//
// Taint tracking is intra-function and source-ordered: aliases made with :=,
// plain assignment, or reslicing are followed; values passed to ordinary
// function calls are not (the callee is separately analyzed if it also
// handles entries). The package that declares the Entry type is exempt — the
// log internals legitimately retain command buffers they own.
package retained

import (
	"go/ast"
	"go/types"

	"rdmaagreement/internal/lint/analysis"
)

// Analyzer is the retained analysis.
var Analyzer = &analysis.Analyzer{
	Name: "retained",
	Doc:  "check that borrowed Entry.Cmd / snapshot slices are not retained or mutated",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	tainted := make(map[*types.Var]bool)

	// Restore receives a borrowed buffer as its first parameter.
	if fd.Recv != nil && fd.Name.Name == "Restore" {
		if p := firstParam(fd); p != nil {
			if obj, ok := pass.TypesInfo.Defs[p].(*types.Var); ok && isByteSlice(obj.Type()) {
				tainted[obj] = true
			}
		}
	}

	isTainted := func(e ast.Expr) bool { return taintedExpr(pass, tainted, e) }

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, n, tainted, isTainted)
		case *ast.SendStmt:
			if isTainted(n.Value) {
				pass.Reportf(n.Value.Pos(), "%s sends a borrowed command slice on a channel; the receiver outlives the call", describe(n.Value))
			}
		case *ast.CallExpr:
			checkCall(pass, n, isTainted)
		}
		return true
	})
}

func checkAssign(pass *analysis.Pass, as *ast.AssignStmt, tainted map[*types.Var]bool, isTainted func(ast.Expr) bool) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[i]
		hot := isTainted(rhs)

		// Mutation: writing through a borrowed slice, tainted[i] = x.
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			if isTainted(idx.X) {
				pass.Reportf(lhs.Pos(), "%s mutates a borrowed command slice; Entry.Cmd is read-only", describe(idx.X))
				continue
			}
			if hot {
				if _, isMap := pass.TypesInfo.TypeOf(idx.X).Underlying().(*types.Map); isMap {
					pass.Reportf(rhs.Pos(), "%s stores a borrowed command slice in a map; copy it first", describe(rhs))
				}
				continue
			}
		}

		// Retention: storing into a field reachable through a pointer, or a
		// package-level variable.
		if sel, ok := lhs.(*ast.SelectorExpr); ok && hot {
			if escapingBase(pass, sel) {
				pass.Reportf(rhs.Pos(), "%s stores a borrowed command slice in a field; copy it first (Entry.Cmd is only valid during the call)", describe(rhs))
			}
			continue
		}
		if id, ok := lhs.(*ast.Ident); ok {
			obj, _ := pass.TypesInfo.Uses[id].(*types.Var)
			if obj == nil {
				obj, _ = pass.TypesInfo.Defs[id].(*types.Var)
			}
			if obj == nil {
				continue
			}
			if hot && obj.Parent() == pass.Pkg.Scope() {
				pass.Reportf(rhs.Pos(), "%s stores a borrowed command slice in a package-level variable; copy it first", describe(rhs))
				continue
			}
			// Alias tracking for locals.
			tainted[obj] = hot
		}
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, isTainted func(ast.Expr) bool) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsBuiltin() {
		return
	}
	switch name := builtinName(call.Fun); name {
	case "append":
		// append(dst, cmd...) copies bytes — fine. append(dst, cmd) stores
		// the slice header — retention.
		if call.Ellipsis.IsValid() {
			return
		}
		for _, arg := range call.Args[1:] {
			if isTainted(arg) {
				pass.Reportf(arg.Pos(), "%s stores a borrowed command slice in a slice; copy it first", describe(arg))
			}
		}
	case "copy":
		if len(call.Args) == 2 && isTainted(call.Args[0]) {
			pass.Reportf(call.Args[0].Pos(), "%s mutates a borrowed command slice via copy; Entry.Cmd is read-only", describe(call.Args[0]))
		}
	}
}

// taintedExpr reports whether e aliases a borrowed buffer: a tainted local,
// an Entry.Cmd selector from another package, or a reslice of either.
func taintedExpr(pass *analysis.Pass, tainted map[*types.Var]bool, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj, _ := pass.TypesInfo.Uses[e].(*types.Var)
		return obj != nil && tainted[obj]
	case *ast.SelectorExpr:
		return isEntryCmd(pass, e)
	case *ast.SliceExpr:
		return taintedExpr(pass, tainted, e.X)
	case *ast.ParenExpr:
		return taintedExpr(pass, tainted, e.X)
	}
	return false
}

// isEntryCmd matches X.Cmd where X is a struct type named Entry (declared in
// a different package) with a Cmd []byte field.
func isEntryCmd(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Cmd" {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Entry" {
		return false
	}
	if named.Obj().Pkg() == nil || named.Obj().Pkg() == pass.Pkg {
		return false // the log package owns its entries
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "Cmd" {
			return isByteSlice(f.Type())
		}
	}
	return false
}

// escapingBase reports whether the selector's base escapes the frame: any
// pointer traversal, a package-level root, or a non-local root. Field stores
// into a local value-typed struct copy are fine.
func escapingBase(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	x := sel.X
	for {
		t := pass.TypesInfo.TypeOf(x)
		if t != nil {
			if _, ok := t.Underlying().(*types.Pointer); ok {
				return true
			}
		}
		switch e := x.(type) {
		case *ast.SelectorExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			obj, _ := pass.TypesInfo.Uses[e].(*types.Var)
			if obj == nil {
				return true
			}
			return obj.Parent() == pass.Pkg.Scope()
		default:
			return true
		}
	}
}

func firstParam(fd *ast.FuncDecl) *ast.Ident {
	if fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return nil
	}
	f := fd.Type.Params.List[0]
	if len(f.Names) == 0 {
		return nil
	}
	return f.Names[0]
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func builtinName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.ParenExpr:
		return builtinName(f.X)
	}
	return ""
}

func describe(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := describe(e.X)
		return base + "." + e.Sel.Name
	case *ast.SliceExpr:
		return describe(e.X) + "[…]"
	case *ast.ParenExpr:
		return describe(e.X)
	}
	return "expression"
}

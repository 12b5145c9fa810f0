// Package applydet implements the smrlint analyzer that machine-checks the
// replicated-state-machine determinism contract: every replica must compute
// the identical result for the identical entry sequence, so code reachable
// from StateMachine.Apply / Restore must not consult wall clocks,
// randomness, scheduling, or map iteration order.
//
// Roots are detected structurally — an Apply method whose first parameter is
// a struct carrying a Cmd []byte field, and a Restore([]byte, …) method on a
// type that also has Apply — plus any function annotated
// //smrlint:deterministic.
//
// Forbidden in reachable code:
//
//   - time.Now/Since/Until/Sleep/After/Tick/NewTimer/NewTicker;
//   - any use of math/rand, math/rand/v2, or crypto/rand;
//   - go statements (scheduling is nondeterministic);
//   - channel operations: send, receive, close, select;
//   - order-dependent map iteration: appending to a slice declared outside
//     the range (unless the slice is later passed to sort or slices, the
//     collect-then-sort idiom) or accumulating a string with +=. Map writes,
//     deletes, and commutative numeric accumulation remain allowed.
//
// Reachability is the static call graph: direct calls within the package are
// walked, and cross-package calls are checked against exported facts, so a
// nondeterministic helper in internal/shard is caught from an Apply in the
// root package. Dynamic calls (interface methods, function values) are not
// followed — the callee's own Apply/annotation coverage is the backstop.
package applydet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"rdmaagreement/internal/lint/analysis"
	"rdmaagreement/internal/lint/directive"
)

// NondetFact marks an exported function as nondeterministic for callers in
// other packages.
type NondetFact struct {
	Reason string
}

// AFact marks NondetFact as an analysis fact.
func (*NondetFact) AFact() {}

// Analyzer is the applydet analysis.
var Analyzer = &analysis.Analyzer{
	Name:      "applydet",
	Doc:       "check determinism of code reachable from Apply/Restore",
	Run:       run,
	FactTypes: []analysis.Fact{(*NondetFact)(nil)},
}

// violation is a direct nondeterministic operation inside one function.
type violation struct {
	pos    token.Pos
	what   string // e.g. "time.Now"
	detail string // full diagnostic clause
}

// funcInfo is the per-function summary the call-graph walk consumes.
type funcInfo struct {
	decl       *ast.FuncDecl
	violations []violation
	callees    []*types.Func
}

func run(pass *analysis.Pass) (any, error) {
	infos := make(map[*types.Func]*funcInfo)
	var roots []*types.Func

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			infos[fn] = summarize(pass, fd)
			if isRoot(pass, fd) {
				roots = append(roots, fn)
			}
		}
	}

	// Export facts: any function that transitively reaches a violation is
	// nondeterministic from its callers' point of view.
	memo := make(map[*types.Func]string)
	for fn := range infos {
		if reason := transitiveReason(pass, fn, infos, memo, make(map[*types.Func]bool)); reason != "" {
			pass.ExportObjectFact(fn, &NondetFact{Reason: reason})
		}
	}

	// Report every violation reachable from a root, once per site.
	reported := make(map[token.Pos]bool)
	for _, root := range roots {
		reportReachable(pass, root, rootName(root), infos, reported, make(map[*types.Func]bool))
	}
	return nil, nil
}

// transitiveReason returns the first nondeterminism reason reachable from fn,
// or "".
func transitiveReason(pass *analysis.Pass, fn *types.Func, infos map[*types.Func]*funcInfo, memo map[*types.Func]string, visiting map[*types.Func]bool) string {
	if r, ok := memo[fn]; ok {
		return r
	}
	if visiting[fn] {
		return ""
	}
	visiting[fn] = true
	defer delete(visiting, fn)

	info := infos[fn]
	if info == nil {
		// Cross-package callee: consult its exported fact.
		var fact NondetFact
		if fn.Pkg() != nil && fn.Pkg() != pass.Pkg && pass.ImportObjectFact(fn, &fact) {
			memo[fn] = fact.Reason
			return fact.Reason
		}
		memo[fn] = ""
		return ""
	}
	if len(info.violations) > 0 {
		memo[fn] = info.violations[0].what
		return info.violations[0].what
	}
	for _, callee := range info.callees {
		if r := transitiveReason(pass, callee, infos, memo, visiting); r != "" {
			reason := fmt.Sprintf("calls %s: %s", callee.Name(), r)
			memo[fn] = reason
			return reason
		}
	}
	memo[fn] = ""
	return ""
}

// reportReachable walks the static call graph from root and reports each
// violation at its site.
func reportReachable(pass *analysis.Pass, fn *types.Func, root string, infos map[*types.Func]*funcInfo, reported map[token.Pos]bool, seen map[*types.Func]bool) {
	if seen[fn] {
		return
	}
	seen[fn] = true
	info := infos[fn]
	if info == nil {
		return
	}
	for _, v := range info.violations {
		if !reported[v.pos] {
			reported[v.pos] = true
			pass.Reportf(v.pos, "%s in code reachable from %s; replicas must apply deterministically", v.detail, root)
		}
	}
	for _, callee := range info.callees {
		if infos[callee] == nil {
			// Cross-package: report at the first call site if the callee
			// carries a nondeterminism fact.
			var fact NondetFact
			if callee.Pkg() != nil && callee.Pkg() != pass.Pkg && pass.ImportObjectFact(callee, &fact) {
				pos := callSite(info.decl, pass, callee)
				if pos.IsValid() && !reported[pos] {
					reported[pos] = true
					pass.Reportf(pos, "call to %s is nondeterministic (%s) in code reachable from %s", callee.Name(), fact.Reason, root)
				}
			}
			continue
		}
		reportReachable(pass, callee, root, infos, reported, seen)
	}
}

// callSite finds the first call to callee within decl.
func callSite(decl *ast.FuncDecl, pass *analysis.Pass, callee *types.Func) token.Pos {
	var pos token.Pos
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if staticCallee(pass, call) == callee {
			pos = call.Pos()
			return false
		}
		return true
	})
	return pos
}

// summarize collects a function's direct violations and static callees.
func summarize(pass *analysis.Pass, fd *ast.FuncDecl) *funcInfo {
	info := &funcInfo{decl: fd}

	// Candidate order-dependent appends inside map ranges, suppressed when
	// the target is later sorted (the collect-then-sort idiom).
	type rangeAppend struct {
		pos    token.Pos
		target types.Object
		name   string
	}
	var rangeAppends []rangeAppend
	sorted := make(map[types.Object]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			info.violations = append(info.violations, violation{n.Pos(), "spawns a goroutine", "goroutine spawn"})
		case *ast.SendStmt:
			info.violations = append(info.violations, violation{n.Pos(), "channel send", "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				info.violations = append(info.violations, violation{n.Pos(), "channel receive", "channel receive"})
			}
		case *ast.SelectStmt:
			info.violations = append(info.violations, violation{n.Pos(), "select statement", "select statement"})
		case *ast.CallExpr:
			if v, ok := callViolation(pass, n); ok {
				info.violations = append(info.violations, v)
				return true
			}
			if callee := staticCallee(pass, n); callee != nil {
				info.callees = append(info.callees, callee)
			}
			// Note sort/slices calls for the collect-then-sort suppression.
			if pkg, sel := pkgCall(pass, n); pkg == "sort" || pkg == "slices" {
				_ = sel
				for _, arg := range n.Args {
					markSorted(pass, arg, sorted)
				}
			}
		case *ast.RangeStmt:
			if _, isMap := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); !isMap {
				return true
			}
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				as, ok := inner.(*ast.AssignStmt)
				if !ok {
					return true
				}
				if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
					if isString(pass.TypesInfo.TypeOf(as.Lhs[0])) && declaredOutside(pass, as.Lhs[0], n) {
						info.violations = append(info.violations, violation{as.Pos(), "order-dependent map iteration", fmt.Sprintf("string accumulation over a map range is order-dependent (%s)", render(as.Lhs[0]))})
					}
					return true
				}
				if len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, rhs := range as.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || builtinName(pass, call) != "append" {
						continue
					}
					lhs := as.Lhs[i]
					if !declaredOutside(pass, lhs, n) {
						continue
					}
					rangeAppends = append(rangeAppends, rangeAppend{as.Pos(), rootObject(pass, lhs), render(lhs)})
				}
				return true
			})
		}
		return true
	})

	for _, ra := range rangeAppends {
		if ra.target != nil && sorted[ra.target] {
			continue
		}
		info.violations = append(info.violations, violation{ra.pos, "order-dependent map iteration", fmt.Sprintf("append to %s inside a map range is order-dependent unless sorted afterwards", ra.name)})
	}
	return info
}

// forbiddenTime is the set of time functions that read clocks or schedule.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// callViolation classifies calls that are themselves nondeterministic.
func callViolation(pass *analysis.Pass, call *ast.CallExpr) (violation, bool) {
	if builtinName(pass, call) == "close" {
		return violation{call.Pos(), "channel close", "channel close"}, true
	}
	pkg, sel := pkgCall(pass, call)
	switch pkg {
	case "time":
		if forbiddenTime[sel] {
			return violation{call.Pos(), "time." + sel, "call to time." + sel}, true
		}
	case "math/rand", "math/rand/v2", "crypto/rand":
		return violation{call.Pos(), pkg + "." + sel, "call to " + pkg + "." + sel}, true
	}
	return violation{}, false
}

// pkgCall resolves a pkg.Fn(...) call to its import path and selector name.
func pkgCall(pass *analysis.Pass, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pkg.Imported().Path(), sel.Sel.Name
}

// staticCallee resolves a call to a statically known function or method.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isRoot detects the determinism-contract entry points.
func isRoot(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if _, ok := directive.Marker(fd.Doc, "deterministic"); ok {
		return true
	}
	if fd.Recv == nil {
		return false
	}
	params := fd.Type.Params
	switch fd.Name.Name {
	case "Apply":
		return params != nil && len(params.List) > 0 && hasCmdField(pass.TypesInfo.TypeOf(params.List[0].Type))
	case "Restore":
		if params == nil || len(params.List) == 0 || !isByteSlice(pass.TypesInfo.TypeOf(params.List[0].Type)) {
			return false
		}
		return recvHasApply(pass, fd)
	}
	return false
}

// recvHasApply reports whether the receiver's type also has an Apply method.
func recvHasApply(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if len(fd.Recv.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "Apply")
	_, ok := obj.(*types.Func)
	return ok
}

// hasCmdField matches the log entry shape: a struct with a Cmd []byte field.
func hasCmdField(t types.Type) bool {
	if t == nil {
		return false
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "Cmd" {
			return isByteSlice(st.Field(i).Type())
		}
	}
	return false
}

func rootName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
		}
		if named, okn := t.(*types.Named); okn {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// declaredOutside reports whether the assignment target's root is declared
// outside the range statement (a field always is).
func declaredOutside(pass *analysis.Pass, lhs ast.Expr, rng *ast.RangeStmt) bool {
	obj := rootObject(pass, lhs)
	if obj == nil {
		return false
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return true
	}
	if _, isSel := lhs.(*ast.SelectorExpr); isSel {
		return true
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// rootObject resolves the base identifier's object for a selector chain.
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[e]
	case *ast.SelectorExpr:
		// For fields, the field object identifies the accumulation target.
		if sel, ok := pass.TypesInfo.Selections[e]; ok {
			return sel.Obj()
		}
		return pass.TypesInfo.Uses[e.Sel]
	case *ast.ParenExpr:
		return rootObject(pass, e.X)
	}
	return nil
}

// markSorted records the objects appearing in a sort/slices call argument.
func markSorted(pass *analysis.Pass, arg ast.Expr, sorted map[types.Object]bool) {
	ast.Inspect(arg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil {
				sorted[obj] = true
			}
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[n]; ok {
				sorted[sel.Obj()] = true
			}
		}
		return true
	})
}

func builtinName(pass *analysis.Pass, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if tv, ok := pass.TypesInfo.Types[call.Fun]; !ok || !tv.IsBuiltin() {
		return ""
	}
	return id.Name
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// render flattens an expression for diagnostics.
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return render(e.X)
	}
	return "target"
}

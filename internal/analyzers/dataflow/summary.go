package dataflow

import (
	"go/ast"
	"go/types"
)

// CallIndex maps the package's own functions and methods to their
// declarations, so an analyzer seeing a static call can analyze (or
// summarize) the callee body — the one-level interprocedural layer.
type CallIndex struct {
	decls map[*types.Func]*ast.FuncDecl
}

// NewCallIndex indexes every function declaration in files.
func NewCallIndex(info *types.Info, files []*ast.File) *CallIndex {
	x := &CallIndex{decls: make(map[*types.Func]*ast.FuncDecl)}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				x.decls[fn] = fd
			}
		}
	}
	return x
}

// Decl returns the in-package declaration of fn, or nil when fn is
// imported, synthetic, or dynamic.
func (x *CallIndex) Decl(fn *types.Func) *ast.FuncDecl { return x.decls[fn] }

// Callee resolves the function or method a call dispatches to.
// static is true when the dispatch target is fixed at compile time (a
// package function, or a method on a concrete type), so a body can be
// looked up; an interface method call yields its abstract *types.Func
// with static=false. Conversions, builtins and calls of function-typed
// values yield (nil, false).
func Callee(info *types.Info, call *ast.CallExpr) (fn *types.Func, static bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil, false // conversion
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[f].(*types.Func); ok {
			return obj, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			if obj, ok := sel.Obj().(*types.Func); ok {
				if types.IsInterface(sel.Recv()) {
					return obj, false
				}
				return obj, true
			}
			return nil, false // func-typed field value
		}
		// No selection: a package-qualified function (pkg.F).
		if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
			return obj, true
		}
	}
	return nil, false
}

// IsConversion reports whether call is a type conversion T(x).
func IsConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	return ok && tv.IsType()
}

// BuiltinName returns the name of the builtin a call invokes ("append",
// "len", …), or "".
func BuiltinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// Package framedrain enforces the transport's body-before-status rule.
//
// The wire protocol has no frame length prefix: the server knows where
// a frame ends only by decoding it. A handler that writes its status
// byte (or bails out to the next frame) while part of the request body
// is still unread leaves those bytes in the stream, and every later
// frame on the connection desyncs. So in every server-side handler, all
// reads of the request body must happen before the first reply write —
// including on rejection paths, which must drain the body they are
// about to refuse.
//
// Scope: non-test files of internal/transport, in functions that own
// both connection endpoints — a *bufio.Reader and a *bufio.Writer as
// parameters or locals. (Client methods read replies after writing
// requests by design; they access the endpoints through receiver
// fields and are out of scope.) Within such a function the analyzer
// walks the body branch-aware — the arms of an if/switch are
// alternatives, not a sequence — and flags any read of the reader that
// can execute after a write to the writer. A func literal inside such a
// function that touches either endpoint is reported too: the walk cannot
// tell when a closure runs, so a body read hidden in one would escape
// the ordering check.
package framedrain

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/hdr4me/hdr4me/internal/analyzers/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "framedrain",
	Doc:  "transport handlers must consume the frame body before writing a status byte",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !strings.Contains(pass.Pkg.Path(), "internal/transport") {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Package) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	readers, writers := endpoints(pass, fd)
	if len(readers) == 0 || len(writers) == 0 {
		return
	}
	c := &checker{pass: pass, readers: readers, writers: writers}
	c.seq(fd.Body.List, false)
	c.closures(fd.Body)
}

// closures reports every func literal in body that touches a tracked
// endpoint, once per outermost literal.
func (c *checker) closures(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := c.pass.TypesInfo.Uses[id]; c.readers[obj] || c.writers[obj] {
				c.pass.Reportf(lit.Pos(),
					"func literal touches the frame endpoint %s: framedrain cannot order reads and writes inside a closure, so use the endpoint directly in the handler", id.Name)
				return false
			}
			return true
		})
		return false
	})
}

// endpoints collects the function's own *bufio.Reader and *bufio.Writer
// objects: parameters and short-variable locals, not receiver fields.
func endpoints(pass *analysis.Pass, fd *ast.FuncDecl) (readers, writers map[types.Object]bool) {
	readers, writers = map[types.Object]bool{}, map[types.Object]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's endpoints are its own affair
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Defs[id]
		v, ok := obj.(*types.Var)
		if !ok {
			return true
		}
		switch named(v.Type()) {
		case "bufio.Reader":
			readers[obj] = true
		case "bufio.Writer":
			writers[obj] = true
		}
		return true
	})
	return readers, writers
}

// named returns "pkgpath.Name" for pointer-to-named types, else "".
func named(t types.Type) string {
	p, ok := t.(*types.Pointer)
	if !ok {
		return ""
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

type checker struct {
	pass             *analysis.Pass
	readers, writers map[types.Object]bool
}

// seq walks stmts in order threading "has a reply write happened"
// state. Branch arms are walked independently with the incoming state;
// a write in any arm poisons everything after the branch, because a
// handler that has replied on some path must not read on any later one.
func (c *checker) seq(stmts []ast.Stmt, ws bool) bool {
	for _, s := range stmts {
		ws = c.stmt(s, ws)
	}
	return ws
}

func (c *checker) stmt(s ast.Stmt, ws bool) bool {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return c.seq(st.List, ws)
	case *ast.IfStmt:
		ws = c.stmt(st.Init, ws)
		ws = c.scan(st.Cond, ws)
		after := c.stmt(st.Body, ws)
		if st.Else != nil {
			if c.stmt(st.Else, ws) {
				after = true
			}
		}
		return after
	case *ast.SwitchStmt:
		ws = c.stmt(st.Init, ws)
		ws = c.scan(st.Tag, ws)
		after := ws
		for _, cc := range st.Body.List {
			if c.seq(cc.(*ast.CaseClause).Body, ws) {
				after = true
			}
		}
		return after
	case *ast.TypeSwitchStmt:
		ws = c.stmt(st.Init, ws)
		after := ws
		for _, cc := range st.Body.List {
			if c.seq(cc.(*ast.CaseClause).Body, ws) {
				after = true
			}
		}
		return after
	case *ast.ForStmt:
		ws = c.stmt(st.Init, ws)
		ws = c.scan(st.Cond, ws)
		return c.stmt(st.Body, ws)
	case *ast.RangeStmt:
		ws = c.scan(st.X, ws)
		return c.stmt(st.Body, ws)
	case *ast.SelectStmt:
		after := ws
		for _, cc := range st.Body.List {
			if c.seq(cc.(*ast.CommClause).Body, ws) {
				after = true
			}
		}
		return after
	case *ast.LabeledStmt:
		return c.stmt(st.Stmt, ws)
	case *ast.GoStmt, *ast.DeferStmt:
		// Deferred/spawned work runs outside the handler's frame
		// sequence; a deferred Flush is the normal epilogue.
		return ws
	case nil:
		return ws
	default:
		return c.scan(s, ws)
	}
}

// scan inspects one expression/simple statement for endpoint calls in
// source order, updating and returning the write-seen state.
func (c *checker) scan(n ast.Node, ws bool) bool {
	if n == nil {
		return ws
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		reads, writes := c.classify(call)
		if reads && ws {
			c.pass.Reportf(call.Pos(),
				"frame body read after a reply write on the same handler path: consume the body before writing the status byte, or the connection desyncs")
		}
		if writes {
			ws = true
		}
		return true
	})
	return ws
}

// classify reports whether the call touches a tracked reader or writer,
// as receiver or argument.
func (c *checker) classify(call *ast.CallExpr) (reads, writes bool) {
	touch := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		obj := c.pass.TypesInfo.Uses[id]
		if c.readers[obj] {
			reads = true
		}
		if c.writers[obj] {
			writes = true
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		touch(sel.X)
	}
	for _, a := range call.Args {
		touch(a)
	}
	return reads, writes
}

// Package ldpflow is the privacy-taint analyzer: it machine-checks the
// collector's core promise that a raw user tuple never leaves the
// client path except through an internal/ldp randomizer.
//
// Sources: every value whose type is (or derives from) est.Tuple — the
// raw, pre-perturbation record — plus anything dataflow marks as
// derived from one (t.Values[j], a sum of raw values, an est.Report
// built from raw fields). Sanitizers: the mechanism perturb calls
// (functions and methods named Perturb, PerturbNative, PerturbTuple —
// the internal/ldp and internal/freq randomizers — and PerturbBatch,
// internal/ldp's batch kernel, which stores releases of its src slice
// into its dst slice) and calls through the est.Reporter/Estimator
// interface boundary (MakeReport, Observe), whose implementations this
// analyzer verifies separately. A call also taints the slices it is
// handed: copy(dst, src) stores src in dst, an in-package callee stores
// what its summary records, and any other non-sanitizer callee is
// assumed to store any of its operands in any slice operand. Sinks:
// fmt/log output (error strings and logs get persisted and shipped),
// transport frame encoders (Write*/Encode* in a transport package),
// and persist save paths (Save*/Write*/Encode* in a persist package).
//
// A finding fires when a tainted value reaches a sink without passing
// a sanitizer, and — the dual, which closes the interface gap — when a
// function returns an est.Report whose contents are still tainted: a
// Report is the wire unit, so an un-randomized Report return WILL put
// raw values on the wire. One-level interprocedural propagation runs
// through per-function summaries: a static call to an in-package
// function is refined by which parameters taint its results, which
// reach sinks inside it, and which it stores into its slice parameters.
// A boundary method (MakeReport, Observe) whose tuple parameter reaches
// a sink is also a finding at its declaration, since its callers reach
// it through the interface.
//
// Accepted gaps, by design: implicit flows (branching on a raw value),
// taint through captured variables in function literals (tuple-typed
// captures are still caught by type), aliasing through pointers, and
// interface dispatch to implementations outside the analyzed package
// (each implementation is checked in its own package). Offline
// analysis harnesses — internal/exps, internal/metrics — are exempt:
// they compute ground truth from raw datasets by design and never run
// on the client path. Test files are skipped.
package ldpflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/hdr4me/hdr4me/internal/analyzers/analysis"
	"github.com/hdr4me/hdr4me/internal/analyzers/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "ldpflow",
	Doc:  "forbid raw tuple values reaching output sinks without LDP randomization",
	Run:  run,
}

// tupleBit marks "derives from a raw est.Tuple". Lower bits mark
// "derives from parameter i" during summary computation.
const tupleBit = uint64(1) << 63

const maxSummaryParams = 62

// exempt packages: offline analysis/simulation harnesses that compute
// ground truth from raw data by design.
var exemptPaths = []string{"/exps", "/metrics"}

func run(pass *analysis.Pass) error {
	for _, ex := range exemptPaths {
		if strings.Contains(pass.Pkg.Path(), ex) {
			return nil
		}
	}
	a := &analyzer{
		pass:      pass,
		idx:       dataflow.NewCallIndex(pass.TypesInfo, pass.Files),
		summaries: make(map[*types.Func]*summary),
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
			a.checkFunc(fd.Body)
			a.checkBoundary(fd)
			// Function literals get their own pass: captured taint is
			// not tracked, but tuple-typed values are caught by type.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					a.checkFunc(fl.Body)
					return false
				}
				return true
			})
		}
	}
	return nil
}

type analyzer struct {
	pass      *analysis.Pass
	idx       *dataflow.CallIndex
	summaries map[*types.Func]*summary
}

// summary is one function's interprocedural behavior: which parameters
// (receiver counts as parameter 0) taint its results, and which reach
// a sink inside it.
type summary struct {
	taintsResult uint64 // bit i: param i flows to some result
	paramToSink  uint64 // bit i: param i reaches a sink in the body
	// writes[i]: the params (bits) the body stores into the elements of
	// slice param i, e.g. gather(dst, src []float64) copying src into dst.
	writes map[int]uint64
}

// checkFunc runs the reporting taint dataflow over one function body.
func (a *analyzer) checkFunc(body *ast.BlockStmt) {
	g := dataflow.New(body)
	res := g.Solve(dataflow.Problem{
		Entry:    dataflow.State{},
		Transfer: a.transfer,
		Join:     dataflow.JoinMay,
	})
	sum := &summary{}
	res.Visit(func(n ast.Node, st dataflow.State) {
		a.visit(n, st, true, sum)
	})
}

// checkBoundary reports a report-boundary method (MakeReport, Observe)
// whose tuple parameter reaches an output sink. Callers reach such a
// method through the est.Reporter interface — est.Family calls every
// family's MakeReport through its Calibrator — so no call site in the
// method's package names it and the interprocedural finding at a
// caller cannot fire; the declaration carries that finding instead. A
// directive on the sink line inside does not cover the declaration.
func (a *analyzer) checkBoundary(fd *ast.FuncDecl) {
	if fd.Recv == nil || !isReporterBoundary(fd.Name.Name) {
		return
	}
	fn, ok := a.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sum := a.summarize(fn)
	for i, obj := range paramObjects(a.pass.TypesInfo, fd) {
		if obj != nil && isTupleType(obj.Type()) && sum.paramToSink&(uint64(1)<<i) != 0 {
			a.pass.Reportf(fd.Name.Pos(),
				"raw tuple value reaches an output sink inside %s, a report boundary callers reach through est.Reporter, without LDP randomization", fd.Name.Name)
			return
		}
	}
}

// summarize computes (memoized) the summary of an in-package function:
// the body is re-analyzed with each parameter seeded with its own
// taint bit. Nested in-package calls resolve through memoized
// summaries (a conservative placeholder breaks recursion cycles), so
// the propagation bottoms out without re-walking callees.
func (a *analyzer) summarize(fn *types.Func) *summary {
	if s, ok := a.summaries[fn]; ok {
		return s
	}
	// Park a conservative placeholder to break recursion cycles.
	placeholder := &summary{taintsResult: ^uint64(0), paramToSink: 0}
	a.summaries[fn] = placeholder
	fd := a.idx.Decl(fn)
	if fd == nil {
		return placeholder
	}
	g := dataflow.New(fd.Body)
	entry := dataflow.State{}
	seedParams(a.pass.TypesInfo, fd, entry)
	res := g.Solve(dataflow.Problem{
		Entry:    entry,
		Transfer: a.transfer,
		Join:     dataflow.JoinMay,
	})
	sum := &summary{}
	res.Visit(func(n ast.Node, st dataflow.State) {
		a.visit(n, st, false, sum)
	})
	if exit := res.In(g.Exit); exit != nil {
		for i, obj := range paramObjects(a.pass.TypesInfo, fd) {
			if obj == nil {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
				continue
			}
			if w := exit[obj] &^ (uint64(1) << i); w != 0 {
				if sum.writes == nil {
					sum.writes = make(map[int]uint64)
				}
				sum.writes[i] = w
			}
		}
	}
	a.summaries[fn] = sum
	return sum
}

// seedParams marks the receiver as param 0 and each parameter with the
// next bit, so one summary pass tracks all of them.
func seedParams(info *types.Info, fd *ast.FuncDecl, st dataflow.State) {
	for bit, obj := range paramObjects(info, fd) {
		if obj != nil {
			st[obj] |= uint64(1) << bit
		}
	}
}

// paramObjects lists the receiver and parameters in summary-bit order
// (nil for unnamed ones), capped at maxSummaryParams.
func paramObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var objs []types.Object
	mark := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			for _, name := range field.Names {
				objs = append(objs, info.Defs[name])
			}
			if len(field.Names) == 0 {
				objs = append(objs, nil)
			}
		}
	}
	mark(fd.Recv)
	mark(fd.Type.Params)
	if len(objs) > maxSummaryParams {
		objs = objs[:maxSummaryParams]
	}
	return objs
}

// argMasks returns the argument masks of a call aligned to summary
// bits: receiver first, then positional args.
func (a *analyzer) argMasks(call *ast.CallExpr, st dataflow.State) []uint64 {
	args := callOperands(a.pass.TypesInfo, call)
	masks := make([]uint64, len(args))
	for i, arg := range args {
		masks[i] = a.taintOf(arg, st)
	}
	return masks
}

// callOperands returns a call's operands in summary-bit order: the
// method receiver, when there is one, then the positional args.
func callOperands(info *types.Info, call *ast.CallExpr) []ast.Expr {
	var args []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := info.Selections[sel]; isSel {
			args = append(args, sel.X)
		}
	}
	return append(args, call.Args...)
}

// ---- taint evaluation -------------------------------------------------------

// isTupleType reports whether t is (or contains, through pointers,
// slices, arrays, and channels) the raw-record type: a named type
// Tuple declared in an est package.
func isTupleType(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return isTupleType(t.Elem())
	case *types.Slice:
		return isTupleType(t.Elem())
	case *types.Array:
		return isTupleType(t.Elem())
	case *types.Chan:
		return isTupleType(t.Elem())
	case *types.Named:
		obj := t.Obj()
		if obj.Name() != "Tuple" || obj.Pkg() == nil {
			return false
		}
		path := obj.Pkg().Path()
		return strings.Contains(path, "internal/est") || path == "est" ||
			strings.HasSuffix(path, "/est")
	}
	return false
}

// isReportType reports whether t is the wire-unit type: a named type
// Report declared in an est package.
func isReportType(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return isReportType(t.Elem())
	case *types.Slice:
		return isReportType(t.Elem())
	case *types.Named:
		obj := t.Obj()
		if obj.Name() != "Report" || obj.Pkg() == nil {
			return false
		}
		path := obj.Pkg().Path()
		return strings.Contains(path, "internal/est") || path == "est" ||
			strings.HasSuffix(path, "/est")
	}
	return false
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

// taintOf evaluates the taint mask of an expression under st.
func (a *analyzer) taintOf(e ast.Expr, st dataflow.State) uint64 {
	if e == nil {
		return 0
	}
	info := a.pass.TypesInfo
	if t := info.TypeOf(e); t != nil && isTupleType(t) {
		return tupleBit | a.stateTaint(e, st)
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := useOrDef(info, e); obj != nil {
			return st[obj]
		}
		return 0
	case *ast.ParenExpr:
		return a.taintOf(e.X, st)
	case *ast.SelectorExpr:
		// Field access: the container's taint. Package-qualified names
		// resolve to objects, not containers.
		if _, ok := info.Selections[e]; ok {
			return a.taintOf(e.X, st)
		}
		if obj := info.Uses[e.Sel]; obj != nil {
			return st[obj]
		}
		return 0
	case *ast.IndexExpr:
		return a.taintOf(e.X, st)
	case *ast.SliceExpr:
		return a.taintOf(e.X, st)
	case *ast.StarExpr:
		return a.taintOf(e.X, st)
	case *ast.UnaryExpr:
		return a.taintOf(e.X, st)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			// Comparisons yield booleans: implicit flows are out of scope.
			return 0
		}
		return a.taintOf(e.X, st) | a.taintOf(e.Y, st)
	case *ast.CallExpr:
		return a.callTaint(e, st)
	case *ast.CompositeLit:
		var mask uint64
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				mask |= a.taintOf(kv.Value, st)
			} else {
				mask |= a.taintOf(elt, st)
			}
		}
		return mask
	case *ast.TypeAssertExpr:
		return a.taintOf(e.X, st)
	case *ast.FuncLit, *ast.BasicLit:
		return 0
	}
	return 0
}

// stateTaint digs the state-carried bits out of an expression's root
// variable (for tuple-typed exprs the type already supplies tupleBit;
// param bits still matter for summaries).
func (a *analyzer) stateTaint(e ast.Expr, st dataflow.State) uint64 {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := useOrDef(a.pass.TypesInfo, e); obj != nil {
			return st[obj]
		}
	case *ast.SelectorExpr:
		return a.stateTaint(e.X, st)
	case *ast.IndexExpr:
		return a.stateTaint(e.X, st)
	case *ast.SliceExpr:
		return a.stateTaint(e.X, st)
	case *ast.StarExpr:
		return a.stateTaint(e.X, st)
	case *ast.ParenExpr:
		return a.stateTaint(e.X, st)
	}
	return 0
}

// callTaint evaluates the taint of a call's results.
func (a *analyzer) callTaint(call *ast.CallExpr, st dataflow.State) uint64 {
	info := a.pass.TypesInfo
	if dataflow.IsConversion(info, call) {
		return a.taintOf(call.Args[0], st)
	}
	switch dataflow.BuiltinName(info, call) {
	case "append", "copy", "min", "max", "real", "imag", "complex", "abs":
		var mask uint64
		for _, arg := range call.Args {
			mask |= a.taintOf(arg, st)
		}
		return mask
	case "":
		// not a builtin
	default:
		// len, cap, make, new, delete, clear, panic, …: shape, not value.
		return 0
	}

	fn, static := dataflow.Callee(info, call)
	if fn != nil && isSanitizerName(fn.Name()) {
		return 0
	}
	if fn != nil && isReporterBoundary(fn.Name()) {
		// A MakeReport/Observe call: the est.Reporter contract point,
		// whether dispatched through the interface or on a concrete
		// estimator. Implementations are verified by the tainted-
		// Report-return rule in their own packages.
		return 0
	}
	if fn != nil && static {
		if fd := a.idx.Decl(fn); fd != nil {
			sum := a.summarize(fn)
			masks := a.argMasks(call, st)
			var out uint64
			for i, m := range masks {
				if i < maxSummaryParams && sum.taintsResult&(uint64(1)<<i) != 0 {
					out |= m
				}
			}
			return out
		}
		// A cross-package callee whose results include an est.Report is
		// itself subject to the tainted-Report-return rule in its own
		// package, so its Reports are sanitized by contract.
		if sig, ok := fn.Type().(*types.Signature); ok {
			for i := 0; i < sig.Results().Len(); i++ {
				if isReportType(sig.Results().At(i).Type()) {
					return 0
				}
			}
		}
	}
	// Unknown callee: results conservatively derive from every operand
	// (math.Abs(v) keeps v's taint) — except errors, which the sink
	// check already guards at their construction site.
	var mask uint64
	for _, m := range a.argMasks(call, st) {
		mask |= m
	}
	return mask
}

func isSanitizerName(name string) bool {
	switch name {
	case "Perturb", "PerturbNative", "PerturbTuple", "PerturbBatch":
		return true
	}
	return false
}

func isReporterBoundary(name string) bool {
	return name == "MakeReport" || name == "Observe"
}

// ---- transfer ---------------------------------------------------------------

func (a *analyzer) transfer(n ast.Node, st dataflow.State) {
	info := a.pass.TypesInfo
	switch n := n.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			a.callWrites(call, st)
		}
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				a.callWrites(call, st)
			}
		}
		a.transferAssign(n, st)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var mask uint64
				if i < len(vs.Values) {
					mask = a.taintOf(vs.Values[i], st)
				} else if len(vs.Values) == 1 {
					mask = a.taintOf(vs.Values[0], st)
				}
				setVar(info, name, mask, st)
			}
		}
	case *ast.RangeStmt:
		mask := a.taintOf(n.X, st)
		// The key of a slice/array range is a public index; only map
		// keys carry data.
		keyMask := mask
		if t := info.TypeOf(n.X); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer, *types.Chan:
				keyMask = 0
			}
		}
		if id, ok := n.Key.(*ast.Ident); ok && id.Name != "_" {
			setVar(info, id, keyMask, st)
		}
		if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
			setVar(info, id, mask, st)
		}
	}
}

// callWrites applies what a call stores through its slice operands:
// copy(dst, src) puts src's taint in dst; an in-package callee writes
// what its summary says; any other callee may store any operand into
// any slice operand it is handed — the batch shape f(dst, src) — unless
// it is a sanitizer, whose writes are randomized releases. The stores
// taint the slice's root variable weakly, as an element store does.
func (a *analyzer) callWrites(call *ast.CallExpr, st dataflow.State) {
	info := a.pass.TypesInfo
	if dataflow.IsConversion(info, call) {
		return
	}
	switch dataflow.BuiltinName(info, call) {
	case "copy":
		if len(call.Args) == 2 {
			taintRoot(info, call.Args[0], a.taintOf(call.Args[1], st), st)
		}
		return
	case "":
	default:
		return
	}
	fn, static := dataflow.Callee(info, call)
	if fn != nil && (isSanitizerName(fn.Name()) || isReporterBoundary(fn.Name())) {
		return
	}
	args := callOperands(info, call)
	masks := a.argMasks(call, st)
	if fn != nil && static && a.idx.Decl(fn) != nil {
		for i, w := range a.summarize(fn).writes {
			var mask uint64
			for j, m := range masks {
				if j < maxSummaryParams && w&(uint64(1)<<j) != 0 {
					mask |= m
				}
			}
			if i < len(args) {
				taintRoot(info, args[i], mask|w&tupleBit, st)
			}
		}
		return
	}
	var all uint64
	for _, m := range masks {
		all |= m
	}
	for _, arg := range args {
		if t := info.TypeOf(arg); t != nil {
			if _, ok := t.Underlying().(*types.Slice); ok {
				taintRoot(info, arg, all, st)
			}
		}
	}
}

// taintRoot ORs mask into the root variable of e (a weak update).
func taintRoot(info *types.Info, e ast.Expr, mask uint64, st dataflow.State) {
	if mask == 0 {
		return
	}
	if sl, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
		e = sl.X
	}
	if root := rootIdent(e); root != nil {
		if obj := useOrDef(info, root); obj != nil {
			st[obj] |= mask
		}
	}
}

func (a *analyzer) transferAssign(as *ast.AssignStmt, st dataflow.State) {
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			mask := a.taintOf(as.Rhs[i], st)
			if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
				mask |= a.taintOf(lhs, st) // op-assign keeps old taint
			}
			a.setLhs(lhs, mask, st)
		}
		return
	}
	// Multi-value: one call/assert feeding several variables.
	mask := a.taintOf(as.Rhs[0], st)
	for _, lhs := range as.Lhs {
		a.setLhs(lhs, mask, st)
	}
}

// setLhs writes a taint mask through an assignment target: a plain
// variable is strongly updated, a field/index store taints the root
// container weakly (it never clears).
func (a *analyzer) setLhs(lhs ast.Expr, mask uint64, st dataflow.State) {
	info := a.pass.TypesInfo
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		if t := info.TypeOf(lhs); isErrorType(t) {
			mask = 0 // error values carry messages, guarded at the sink
		}
		setVar(info, lhs, mask, st)
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.ParenExpr:
		if mask == 0 {
			return
		}
		if root := rootIdent(lhs); root != nil {
			if obj := useOrDef(info, root); obj != nil {
				st[obj] |= mask
			}
		}
	}
}

func setVar(info *types.Info, id *ast.Ident, mask uint64, st dataflow.State) {
	obj := useOrDef(info, id)
	if obj == nil {
		return
	}
	if mask == 0 {
		delete(st, obj)
	} else {
		st[obj] = mask
	}
}

func useOrDef(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func rootIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return rootIdent(e.X)
	case *ast.IndexExpr:
		return rootIdent(e.X)
	case *ast.StarExpr:
		return rootIdent(e.X)
	case *ast.ParenExpr:
		return rootIdent(e.X)
	}
	return nil
}

// ---- sinks and findings -----------------------------------------------------

// sinkOf classifies a call as an output sink, returning a description
// or "".
func (a *analyzer) sinkOf(call *ast.CallExpr) string {
	fn, _ := dataflow.Callee(a.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch path {
	case "fmt":
		switch {
		case strings.HasPrefix(name, "Print"), strings.HasPrefix(name, "Fprint"),
			strings.HasPrefix(name, "Sprint"), name == "Errorf", name == "Appendf":
			return "fmt." + name
		}
		return ""
	case "log", "log/slog":
		return path + "." + name
	}
	if strings.Contains(path, "transport") &&
		(strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Encode") ||
			strings.HasPrefix(name, "Append")) {
		return "transport encoder " + name
	}
	if strings.Contains(path, "persist") &&
		(strings.HasPrefix(name, "Save") || strings.HasPrefix(name, "Write") ||
			strings.HasPrefix(name, "Encode")) {
		return "persist " + name
	}
	return ""
}

// visit checks one node for findings (report mode) or summary facts.
func (a *analyzer) visit(n ast.Node, st dataflow.State, report bool, sum *summary) {
	if _, ok := n.(*dataflow.Exit); ok {
		return // synthetic end-of-function marker, nothing to inspect
	}
	// A RangeStmt block node carries the whole loop; its body
	// statements live in their own blocks, so only the ranged
	// expression belongs to this program point.
	if rs, ok := n.(*ast.RangeStmt); ok {
		n = rs.X
	}
	// Replay this node's sub-expressions: sink calls and tainted
	// Report returns.
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // analyzed separately
		case *ast.CallExpr:
			a.checkCall(m, st, report, sum)
		case *ast.ReturnStmt:
			a.checkReturn(m, st, report, sum)
		}
		return true
	})
}

func (a *analyzer) checkCall(call *ast.CallExpr, st dataflow.State, report bool, sum *summary) {
	info := a.pass.TypesInfo
	if sink := a.sinkOf(call); sink != "" {
		for _, arg := range call.Args {
			mask := a.taintOf(arg, st)
			if mask&tupleBit != 0 && report {
				a.pass.Reportf(arg.Pos(),
					"raw tuple value reaches %s without LDP randomization: perturb it through an internal/ldp mechanism before it leaves the client path", sink)
			}
			sum.paramToSink |= mask &^ tupleBit
		}
		return
	}
	// One-level interprocedural: a static in-package callee that pipes
	// a parameter into a sink makes this call site the finding.
	fn, static := dataflow.Callee(info, call)
	if fn == nil || !static || a.idx.Decl(fn) == nil || isSanitizerName(fn.Name()) {
		return
	}
	calleeSum := a.summarize(fn)
	if calleeSum.paramToSink == 0 {
		return
	}
	masks := a.argMasks(call, st)
	for i, m := range masks {
		if i >= maxSummaryParams || calleeSum.paramToSink&(uint64(1)<<i) == 0 {
			continue
		}
		if m&tupleBit != 0 && report {
			a.pass.Reportf(call.Pos(),
				"raw tuple value flows into %s, which passes it to an output sink without LDP randomization", fn.Name())
		}
		sum.paramToSink |= m &^ tupleBit
	}
}

func (a *analyzer) checkReturn(ret *ast.ReturnStmt, st dataflow.State, report bool, sum *summary) {
	info := a.pass.TypesInfo
	for _, res := range ret.Results {
		mask := a.taintOf(res, st)
		if mask == 0 {
			continue
		}
		sum.taintsResult |= mask &^ tupleBit
		if mask&tupleBit != 0 && report {
			if t := info.TypeOf(res); t != nil && isReportType(t) && !isTupleType(t) {
				a.pass.Reportf(res.Pos(),
					"est.Report built from raw tuple values returned without LDP randomization: every Report field must come from a mechanism Perturb call")
			}
		}
	}
}

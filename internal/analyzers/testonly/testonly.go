// Package testonly defines an Analyzer that reports exported
// identifiers of internal packages that only tests use.
package testonly

import (
	"bytes"
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"github.com/hdr4me/hdr4me/internal/analyzers/analysis"
)

// Analyzer is the testonly checker.
var Analyzer = &analysis.Analyzer{
	Name: "testonly",
	Doc: `report exported identifiers of internal packages that no non-test code uses

An exported function, method, type, variable or constant declared in a
non-test file of an internal/ package must be referenced from a non-test
file somewhere in the program: the main module and the modules nested
in it. What only tests use belongs in their _test.go files; what nothing
uses should go. Besides a direct reference, three things count as a use:
a method that satisfies an interface the non-test code uses or whose
package it imports (stdlib interfaces included), an exported method of a
type that a non-internal package re-exports by alias, and every export of
a test-support package, one that only other packages' tests import.
Struct fields are not checked. The check needs the whole program, so it
runs in hdrvet's standalone mode only.`,
	RunProgram: run,
}

// A decl is one exported declaration the check may report.
type decl struct {
	pass *analysis.Pass
	name *ast.Ident
	node ast.Node // the whole declaration: uses inside it do not count
}

func run(passes []*analysis.Pass) error {
	decls := make(map[string]decl)
	used := make(map[string]bool)
	testImported := make(map[string]bool)
	imported := make(map[string]bool)
	ifaces := make(map[string][]string) // interface method lists, by their join
	var sets []map[string]string        // internal types' method sets

	for _, pass := range passes {
		path := pkgPath(pass.Pkg)
		// Receiver types name the type they attach to; that is not a use.
		recvIdents := make(map[*ast.Ident]bool)
		var nonTest []*ast.File
		for _, f := range pass.Files {
			test := pass.IsTestFile(f.Package)
			for _, spec := range f.Imports {
				if imp, err := strconv.Unquote(spec.Path.Value); err == nil && imp != path {
					if test {
						testImported[imp] = true
					} else {
						imported[imp] = true
					}
				}
			}
			if test {
				continue
			}
			nonTest = append(nonTest, f)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvIdents[id] = true
						}
						return true
					})
				}
				if isInternal(path) {
					collectDecls(pass, d, decls)
				}
			}
		}

		for id, obj := range pass.TypesInfo.Uses {
			if recvIdents[id] || pass.IsTestFile(id.Pos()) {
				continue
			}
			k := key(obj)
			if d, ok := decls[k]; ok && d.pass == pass && d.node.Pos() <= id.Pos() && id.Pos() < d.node.End() {
				continue
			}
			used[k] = true
		}
		collectInterfaces(pass, nonTest, ifaces)
		if isInternal(path) {
			sets = append(sets, methodSets(pass)...)
		} else {
			markAliasedMethods(pass, used)
		}
	}

	// A method through which a type satisfies an interface is used.
	for _, set := range sets {
	iface:
		for _, ms := range ifaces {
			for _, m := range ms {
				if _, ok := set[m]; !ok {
					continue iface
				}
			}
			for _, m := range ms {
				used[set[m]] = true
			}
		}
	}

	for k, d := range decls {
		pkg := pkgPath(d.pass.Pkg)
		if used[k] || testImported[pkg] && !imported[pkg] {
			continue
		}
		d.pass.Reportf(d.name.Pos(), "%s is exported but no non-test code uses it: move it into a _test.go file or delete it",
			strings.TrimPrefix(k, pkg+"."))
	}
	return nil
}

// collectDecls records the exported declarations of d.
func collectDecls(pass *analysis.Pass, d ast.Decl, decls map[string]decl) {
	add := func(id *ast.Ident, node ast.Node) {
		if id.IsExported() {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				decls[key(obj)] = decl{pass, id, node}
			}
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		add(d.Name, d)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				add(spec.Name, spec)
			case *ast.ValueSpec:
				for _, id := range spec.Names {
					add(id, spec)
				}
			}
		}
	}
}

// collectInterfaces adds to ifaces the method lists of the interfaces in
// scope of a package's non-test code: those its declarations and
// expressions use, and those exported by the packages it imports.
func collectInterfaces(pass *analysis.Pass, files []*ast.File, ifaces map[string][]string) {
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		ms := make([]string, it.NumMethods())
		for i := range ms {
			ms[i] = methodString(it.Method(i))
		}
		ifaces[strings.Join(ms, ";")] = ms
	}
	add(types.Universe.Lookup("error").Type())
	for e, tv := range pass.TypesInfo.Types {
		if !pass.IsTestFile(e.Pos()) {
			add(tv.Type)
		}
	}
	for _, f := range files {
		for _, spec := range f.Imports {
			pn := pass.TypesInfo.PkgNameOf(spec)
			if pn == nil {
				continue
			}
			scope := pn.Imported().Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type())
				}
			}
		}
	}
}

// methodSets returns, for each named type a package declares outside
// its test files, the key of every method in its pointer method set,
// indexed by methodString.
func methodSets(pass *analysis.Pass) []map[string]string {
	var out []map[string]string
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || pass.IsTestFile(tn.Pos()) || types.IsInterface(tn.Type()) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		set := make(map[string]string, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj().(*types.Func)
			set[methodString(m)] = key(m)
		}
		out = append(out, set)
	}
	return out
}

// methodString identifies a method by name and by its parameter and
// result types, in a form that matches across units, whose type
// universes differ.
func methodString(m *types.Func) string {
	var b bytes.Buffer
	if !m.Exported() {
		b.WriteString(pkgPath(m.Pkg()) + ".")
	}
	b.WriteString(m.Name())
	sig := m.Type().(*types.Signature)
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString(" (")
		for i := range tuple.Len() {
			types.WriteType(&b, types.Unalias(tuple.At(i).Type()), pkgPath)
			b.WriteString(",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// markAliasedMethods marks the exported methods of every internal type
// that a package outside internal/ re-exports by alias: they are its
// public API.
func markAliasedMethods(pass *analysis.Pass, used map[string]bool) {
	for id, obj := range pass.TypesInfo.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.IsAlias() || pass.IsTestFile(id.Pos()) {
			continue
		}
		n, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok || n.Obj().Pkg() == nil || !isInternal(pkgPath(n.Obj().Pkg())) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(n))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				used[key(m)] = true
			}
		}
	}
}

// key names a package-level object or a method across units, whose
// type universes differ: "pkg.Name" or "pkg.Type.Method". Other objects
// (locals, fields) get "".
func key(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	prefix := pkgPath(obj.Pkg()) + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok {
				return prefix + n.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return prefix + obj.Name()
}

// pkgPath is the import path of the package a unit's package stands
// for: test variants ("p [p.test]") and external tests ("p_test") map
// to p.
func pkgPath(pkg *types.Package) string {
	path, _, _ := strings.Cut(pkg.Path(), " ")
	return strings.TrimSuffix(path, "_test")
}

func isInternal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}

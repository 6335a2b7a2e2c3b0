// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface that hdrvet's checkers are
// written against.
//
// The module is deliberately dependency-free (see go.mod), so the real
// x/tools framework cannot be imported. This package keeps the same
// shape — an Analyzer with a Run function over a Pass carrying the
// type-checked package — so the checkers read like stock go/analysis
// passes and could be ported onto x/tools by swapping one import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named invariant checker.
type Analyzer struct {
	// Name is the CLI flag and suppression key for this checker.
	Name string
	// Doc is a one-paragraph description: the invariant, and why it holds.
	Doc string
	// Run inspects one type-checked package and reports findings on pass.
	Run func(*Pass) error
	// RunProgram, set in place of Run, inspects every loaded package at
	// once, one Pass each, and reports each finding on its package's
	// pass. It runs only in standalone mode: a go vet unit sees one
	// package, so unit mode skips it.
	RunProgram func([]*Pass) error
}

// A Pass carries one type-checked package (possibly including its
// in-package _test.go files) through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding against the analyzer's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings recorded so far, in report order.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// IsTestFile reports whether pos sits in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// HasTestFiles reports whether the unit includes any _test.go file —
// i.e. whether this is the package's test variant. Checks that need the
// test files to be present (wireframe's fuzz-coverage rule) gate on it.
func (p *Pass) HasTestFiles() bool {
	for _, f := range p.Files {
		if p.IsTestFile(f.Package) {
			return true
		}
	}
	return false
}

// NewInfo returns a types.Info with every map analyzers rely on
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

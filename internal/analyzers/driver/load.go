// Package driver runs hdrvet's analyzers over type-checked packages in
// two modes: standalone (patterns resolved with `go list -export`, used
// by `make vet-fast` and the analyzer tests) and unitchecker (one
// vet.cfg unit per invocation, the protocol `go vet -vettool` speaks).
//
// Both modes type-check from source against compiler export data, so no
// x/tools machinery is needed: `go list -export` (or the vet.cfg's
// PackageFile map) names a gc export file for every import, and
// importer.ForCompiler's lookup hook opens them.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"github.com/hdr4me/hdr4me/internal/analyzers/analysis"
)

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	ForTest    string
	Export     string
	ImportMap  map[string]string
	GoFiles    []string
	Dir        string
	Standard   bool
	Module     *struct{ Path string }
}

const listFields = "-json=ImportPath,ForTest,Export,ImportMap,GoFiles,Dir,Standard,Module"

func goList(dir string, args ...string) ([]listPackage, error) {
	out, err := goCmd(dir, args...)
	if err != nil {
		return nil, err
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// goCmd runs the go command in dir ("" is the working directory) and
// returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// A Unit is one type-checked analysis target.
type Unit struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// Context marks a unit loaded only for whole-program analyzers to
	// read: no analyzer reports on it.
	Context bool
}

// Load resolves patterns into analysis units. Each in-module package
// becomes one unit; when `go list -test` offers a test variant
// ("pkg [pkg.test]"), that variant replaces the plain package — its file
// list is the plain one plus the in-package _test.go files, which is
// exactly what go vet analyzes — and external test packages
// ("pkg_test [pkg.test]") become units of their own.
func Load(patterns []string) ([]*Unit, error) { return load("", patterns) }

// LoadProgram loads the whole program that whole-program analyzers must
// see: every package of the main module and of each module nested in
// its directory tree (a nested module cannot be listed from the root),
// tests included. Units that patterns do not name are marked Context.
func LoadProgram(patterns []string) ([]*Unit, error) {
	targets, err := listRoots("", patterns)
	if err != nil {
		return nil, err
	}
	gomod, err := goCmd("", "env", "GOMOD")
	if err != nil {
		return nil, err
	}
	root := filepath.Dir(strings.TrimSpace(string(gomod)))
	if root == "." || root == os.DevNull {
		return nil, fmt.Errorf("whole-program analysis needs a module")
	}
	var units []*Unit
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || name == "vendor" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			return nil
		}
		us, err := load(dir, []string{"./..."})
		for _, u := range us {
			u.Context = !targets[basePath(u.ImportPath)]
		}
		units = append(units, us...)
		return err
	})
	return units, err
}

// listRoots returns the import paths patterns name, resolved in dir.
func listRoots(dir string, patterns []string) (map[string]bool, error) {
	roots, err := goList(dir, append([]string{"list", "-json=ImportPath"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	rootSet := make(map[string]bool, len(roots))
	for _, r := range roots {
		rootSet[r.ImportPath] = true
	}
	return rootSet, nil
}

// basePath maps a unit's import path to the package it analyzes:
// "p [p.test]" and "p_test [p.test]" both belong to p.
func basePath(importPath string) string {
	base, _, _ := strings.Cut(importPath, " ")
	return strings.TrimSuffix(base, "_test")
}

// load type-checks the packages patterns name, resolved in dir.
func load(dir string, patterns []string) ([]*Unit, error) {
	rootSet, err := listRoots(dir, patterns)
	if err != nil {
		return nil, err
	}
	args := append([]string{"list", "-test", "-export", "-deps", listFields}, patterns...)
	pkgs, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	// Pick the units: in-module, not the synthesized ".test" mains, and
	// plain packages only when no [pkg.test] variant supersedes them.
	superseded := make(map[string]bool)
	for _, p := range pkgs {
		if p.ForTest != "" && !strings.HasSuffix(p.ImportPath, ".test") &&
			strings.HasPrefix(p.ImportPath, p.ForTest+" ") {
			superseded[p.ForTest] = true
		}
	}
	var units []*Unit
	for _, p := range pkgs {
		if p.Standard || p.Module == nil || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.ForTest == "" && superseded[p.ImportPath] {
			continue
		}
		// Only analyze packages the patterns named (or their test
		// variants) — the -deps closure is there for export data.
		base, _, _ := strings.Cut(p.ImportPath, " ")
		if !rootSet[basePath(base)] {
			continue
		}
		// A dependency recompiled for another package's test ("dep
		// [pkg.test]") is the plain dep again; it is analyzed as itself.
		if p.ForTest != "" && base != p.ForTest && base != p.ForTest+"_test" {
			continue
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		// go list's ImportMap sends a test unit's imports to the variants
		// it links against: the package under test and every dependency
		// recompiled against it ("dep [pkg.test]"), so an external test
		// package sees the in-package test helpers.
		u, err := typeCheck(p.ImportPath, p.Dir, p.GoFiles, exportLookup(exports), p.ImportMap)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].ImportPath < units[j].ImportPath })
	return units, nil
}

// exportLookup opens gc export data by canonical import path.
func exportLookup(exports map[string]string) importer.Lookup {
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

// mapImporter resolves source-level import paths through an optional
// vet.cfg ImportMap before handing them to the gc export-data importer.
type mapImporter struct {
	base      types.ImporterFrom
	importMap map[string]string
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if c, ok := m.importMap[path]; ok {
		path = c
	}
	return m.base.ImportFrom(path, "", 0)
}

// typeCheck parses files (absolute, or relative to dir) and checks them
// against export data.
func typeCheck(importPath, dir string, files []string, lookup importer.Lookup, importMap map[string]string) (*Unit, error) {
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, name := range files {
		if !strings.HasPrefix(name, "/") && dir != "" {
			name = dir + "/" + name
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	info := analysis.NewInfo()
	conf := types.Config{
		Importer: &mapImporter{
			base:      importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom),
			importMap: importMap,
		},
	}
	pkg, err := conf.Check(importPath, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Unit{ImportPath: importPath, Fset: fset, Files: parsed, Pkg: pkg, Info: info}, nil
}

// Run applies analyzers to units and returns each target unit's
// surviving diagnostics, suppressions applied, in positional order.
func Run(units []*Unit, analyzers []*analysis.Analyzer) (map[*Unit][]analysis.Diagnostic, error) {
	found, err := RunRaw(units, analyzers)
	if err != nil {
		return nil, err
	}
	for u, diags := range found {
		diags = analysis.ApplySuppressions(u.Fset, u.Files, diags)
		sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
		found[u] = diags
	}
	return found, nil
}

// RunRaw applies analyzers to units and returns every diagnostic of
// each target (non-Context) unit with no suppression filtering — the
// suppression audit matches raw findings against directives to tell
// live suppressions from stale ones. A per-unit analyzer sees each
// target alone; a whole-program analyzer sees every unit at once.
func RunRaw(units []*Unit, analyzers []*analysis.Analyzer) (map[*Unit][]analysis.Diagnostic, error) {
	found := make(map[*Unit][]analysis.Diagnostic)
	for _, u := range units {
		if !u.Context {
			found[u] = nil
		}
	}
	for _, a := range analyzers {
		passes := make([]*analysis.Pass, len(units))
		for i, u := range units {
			passes[i] = &analysis.Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     u.Files,
				Pkg:       u.Pkg,
				TypesInfo: u.Info,
			}
		}
		if a.RunProgram != nil {
			if err := a.RunProgram(passes); err != nil {
				return nil, fmt.Errorf("%s: %v", a.Name, err)
			}
		}
		for i, u := range units {
			if u.Context {
				continue
			}
			if a.Run != nil {
				if err := a.Run(passes[i]); err != nil {
					return nil, fmt.Errorf("%s on %s: %v", a.Name, u.ImportPath, err)
				}
			}
			found[u] = append(found[u], passes[i].Diagnostics()...)
		}
	}
	return found, nil
}

// Package analyzertest runs one analyzer over fixture packages under a
// testdata/src tree and checks its findings against // want comments —
// a dependency-free stand-in for golang.org/x/tools' analysistest.
//
// Fixture layout mirrors analysistest: testdata/src/<import/path>/*.go,
// where the import path is chosen to trip (or dodge) the analyzer's
// package scoping — e.g. "example.com/internal/est/fix" lands inside
// kahansum's internal/est scope. Fixtures may import the standard
// library only; their export data is resolved with `go list -export`.
//
// A want comment asserts one finding on its line:
//
//	sum += x // want "naive \\+= on float"
//
// The quoted string is a regexp matched against the diagnostic message.
// Several quoted strings assert several findings on the same line.
// Lines without a want comment must produce no finding.
package analyzertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/hdr4me/hdr4me/internal/analyzers/analysis"
	"github.com/hdr4me/hdr4me/internal/analyzers/driver"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run analyzes the fixture package at testdata/src/<pkgPath> (relative
// to the test's working directory, i.e. the analyzer's package dir) and
// reports any mismatch against its want comments as test failures.
func Run(t *testing.T, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		// Fixtures are source-of-truth for analyzer behavior; hold them
		// to the same gofmt bar as the rest of the tree.
		if formatted, err := format.Source(src); err == nil && !bytes.Equal(formatted, src) {
			t.Errorf("%s: fixture is not gofmt-formatted (run gofmt -w on testdata/src)", name)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files under %s", dir)
	}

	info := analysis.NewInfo()
	conf := types.Config{Importer: stdImporter(t, fset)}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", pkgPath, err)
	}

	pass := &analysis.Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	diags := analysis.ApplySuppressions(fset, files, pass.Diagnostics())

	checkWants(t, fset, files, diags)
}

// RunProgram analyzes the fixture module rooted at testdata/src/<dir>
// (a go.mod tree, which may nest further modules) with a whole-program
// analyzer, loaded as `hdrvet ./...` loads the repository, and reports
// any mismatch against the want comments of each package.
func RunProgram(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	t.Chdir(filepath.Join("testdata", "src", filepath.FromSlash(dir)))
	units, err := driver.LoadProgram([]string{"./..."})
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	found, err := driver.Run(units, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	for _, u := range units {
		checkWants(t, u.Fset, u.Files, found[u])
	}
}

// checkWants matches findings against want comments line by line.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitQuoted(t, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected finding: %s (%s)", pos, d.Message, d.Analyzer)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}

	// Unmatched expectations fail with the fixture file:line of the
	// want comment — an analyzer that silently stops diagnosing must
	// point at exactly which fixture line went quiet.
	var leftover []string
	for k, res := range wants {
		for _, re := range res {
			leftover = append(leftover,
				fmt.Sprintf("%s:%d: expected finding not reported: want %q", k.file, k.line, re.String()))
		}
	}
	sort.Strings(leftover)
	for _, l := range leftover {
		t.Error(l)
	}
}

// splitQuoted extracts the quoted regexps from a want comment's tail.
func splitQuoted(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		if s[0] != '"' {
			t.Fatalf("malformed want comment tail: %q", s)
		}
		end := strings.IndexByte(s[1:], '"')
		if end < 0 {
			t.Fatalf("unterminated want pattern: %q", s)
		}
		out = append(out, s[1:1+end])
		s = s[end+2:]
	}
}

var (
	stdOnce    sync.Once
	stdExports map[string]string
	stdErr     error
)

// fixtureDeps are the standard-library packages fixtures may import
// (plus their dependency closures). Extend the list when a new fixture
// needs more — the failure mode is an explicit "no export data" error.
var fixtureDeps = []string{
	"bufio", "bytes", "encoding/binary", "fmt", "io", "math", "net",
	"slices", "sort", "strings", "sync", "sync/atomic", "testing", "time",
}

// stdImporter resolves standard-library imports through export data
// listed once per test process with `go list -export -deps`.
func stdImporter(t *testing.T, fset *token.FileSet) types.Importer {
	t.Helper()
	stdOnce.Do(func() {
		stdExports, stdErr = listStdExports()
	})
	if stdErr != nil {
		t.Fatalf("resolving std export data: %v", stdErr)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := stdExports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q: fixtures may only import fixtureDeps packages", path)
		}
		return os.Open(f)
	}
	return &unsafeAwareImporter{importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)}
}

// listStdExports maps each fixtureDeps package (and every dependency)
// to its gc export-data file.
func listStdExports() (map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, fixtureDeps...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

type unsafeAwareImporter struct{ base types.ImporterFrom }

func (u *unsafeAwareImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.base.ImportFrom(path, "", 0)
}

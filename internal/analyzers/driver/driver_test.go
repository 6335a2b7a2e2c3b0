package driver_test

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hdr4me/hdr4me/internal/analyzers/analysis"
	"github.com/hdr4me/hdr4me/internal/analyzers/driver"
	"github.com/hdr4me/hdr4me/internal/analyzers/nilness"
	"github.com/hdr4me/hdr4me/internal/analyzers/testonly"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestIsVetConfig(t *testing.T) {
	if !driver.IsVetConfig("/tmp/go-build/vet.cfg") {
		t.Error("vet.cfg not recognized")
	}
	if driver.IsVetConfig("./...") || driver.IsVetConfig("main.go") {
		t.Error("package pattern mistaken for a vet config")
	}
}

func TestRunUnitMalformedConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := writeFile(t, dir, "vet.cfg", "{not json")
	if _, err := driver.RunUnit(cfg, nil); err == nil {
		t.Fatal("malformed vet.cfg accepted")
	} else if !strings.Contains(err.Error(), "parsing") {
		t.Errorf("want a parse error, got: %v", err)
	}
}

func TestRunUnitMissingConfig(t *testing.T) {
	if _, err := driver.RunUnit(filepath.Join(t.TempDir(), "absent.cfg"), nil); err == nil {
		t.Fatal("missing vet.cfg accepted")
	}
}

func TestRunUnitUnsupportedCompiler(t *testing.T) {
	dir := t.TempDir()
	cfg := writeFile(t, dir, "vet.cfg", `{"Compiler": "gccgo"}`)
	if _, err := driver.RunUnit(cfg, nil); err == nil || !strings.Contains(err.Error(), "unsupported compiler") {
		t.Fatalf("want unsupported-compiler error, got: %v", err)
	}
}

func TestRunUnitVetxOnly(t *testing.T) {
	dir := t.TempDir()
	vetx := filepath.Join(dir, "out.vetx")
	cfg := writeFile(t, dir, "vet.cfg",
		`{"Compiler": "gc", "VetxOnly": true, "VetxOutput": `+quote(vetx)+`}`)
	n, err := driver.RunUnit(cfg, nil)
	if err != nil || n != 0 {
		t.Fatalf("VetxOnly unit: findings=%d err=%v", n, err)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOnly unit did not write its facts file: %v", err)
	}
}

// TestRunUnitMissingExportData: a unit whose imports cannot be
// resolved (empty PackageFile) must fail the invocation — unless the
// config carries SucceedOnTypecheckFailure, in which case the unit
// succeeds quietly and still writes its vetx file (the cmd/go
// contract for packages that are already known not to compile).
func TestRunUnitMissingExportData(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "p.go", "package p\n\nimport \"fmt\"\n\nfunc F() { fmt.Println() }\n")
	vetx := filepath.Join(dir, "out.vetx")

	base := `"Compiler": "gc", "Dir": ` + quote(dir) + `, "ImportPath": "example.com/p",
		"GoFiles": [` + quote(filepath.Join(dir, "p.go")) + `],
		"PackageFile": {}, "VetxOutput": ` + quote(vetx)

	cfg := writeFile(t, dir, "fail.cfg", `{`+base+`}`)
	if _, err := driver.RunUnit(cfg, nil); err == nil {
		t.Fatal("unit with unresolvable imports succeeded")
	}
	if _, err := os.Stat(vetx); err == nil {
		t.Error("failed unit wrote a vetx file")
	}

	cfg = writeFile(t, dir, "tolerate.cfg", `{`+base+`, "SucceedOnTypecheckFailure": true}`)
	n, err := driver.RunUnit(cfg, nil)
	if err != nil || n != 0 {
		t.Fatalf("SucceedOnTypecheckFailure unit: findings=%d err=%v", n, err)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("tolerated unit did not write its facts file: %v", err)
	}
}

// TestRunUnitFindings runs a real import-free unit through the vet.cfg
// path and checks the finding count comes back.
func TestRunUnitFindings(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "p.go",
		"package p\n\nfunc F() int {\n\tvar p *int\n\treturn *p\n}\n")
	vetx := filepath.Join(dir, "out.vetx")
	cfg := writeFile(t, dir, "vet.cfg",
		`{"Compiler": "gc", "Dir": `+quote(dir)+`, "ImportPath": "example.com/p",
		"GoFiles": [`+quote(filepath.Join(dir, "p.go"))+`],
		"PackageFile": {}, "VetxOutput": `+quote(vetx)+`}`)
	n, err := driver.RunUnit(cfg, []*analysis.Analyzer{nilness.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("want 1 nilness finding through the unitchecker path, got %d", n)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("successful unit did not write its facts file: %v", err)
	}
}

// TestRunUnitSkipsWholeProgram: a vet.cfg unit sees one package, so a
// whole-program analyzer must not run there — testonly would otherwise
// flag every export the unit's importers use.
func TestRunUnitSkipsWholeProgram(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "p.go", "package p\n\nfunc Exported() int { return 1 }\n")
	cfg := writeFile(t, dir, "vet.cfg",
		`{"Compiler": "gc", "Dir": `+quote(dir)+`, "ImportPath": "example.com/internal/p",
		"GoFiles": [`+quote(filepath.Join(dir, "p.go"))+`], "PackageFile": {}}`)
	n, err := driver.RunUnit(cfg, []*analysis.Analyzer{testonly.Analyzer})
	if err != nil || n != 0 {
		t.Fatalf("whole-program analyzer in unit mode: findings=%d err=%v, want 0, nil", n, err)
	}
}

// TestLoadTestVariantSupersedes: for a package with in-package test
// files, Load must analyze the [pkg.test] variant (plain files plus
// _test.go files) instead of the plain package, and an external _test
// package becomes a unit of its own.
func TestLoadTestVariant(t *testing.T) {
	const est = "github.com/hdr4me/hdr4me/internal/est"
	units, err := driver.Load([]string{est})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, u := range units {
		paths = append(paths, u.ImportPath)
	}
	sawVariant := false
	for _, p := range paths {
		if p == est {
			t.Errorf("plain package analyzed despite test variant: %v", paths)
		}
		if strings.HasPrefix(p, est+" [") {
			sawVariant = true
			// The variant's file set must include the _test.go files.
			for _, u := range units {
				if u.ImportPath != p {
					continue
				}
				hasTest := false
				for _, f := range u.Files {
					if strings.HasSuffix(u.Fset.Position(f.Package).Filename, "_test.go") {
						hasTest = true
					}
				}
				if !hasTest {
					t.Error("test variant unit carries no _test.go files")
				}
			}
		}
	}
	if !sawVariant {
		t.Errorf("no test-variant unit for %s: %v", est, paths)
	}
}

// TestLoadExternalTestRecompiledDeps: est's external test package
// imports highdim and freq, which go list recompiles against the est
// test variant ("freq [est.test]"). Load must type-check the external
// test package through those variants, and must not analyze the
// recompiled dependencies as units of their own.
func TestLoadExternalTestRecompiledDeps(t *testing.T) {
	const est = "github.com/hdr4me/hdr4me/internal/est"
	units, err := driver.Load([]string{est})
	if err != nil {
		t.Fatal(err)
	}
	sawExternal := false
	for _, u := range units {
		if strings.HasPrefix(u.ImportPath, est+"_test [") {
			sawExternal = true
		}
		if !strings.HasPrefix(u.ImportPath, est) {
			t.Errorf("recompiled dependency analyzed as a unit: %s", u.ImportPath)
		}
	}
	if !sawExternal {
		t.Errorf("no external test unit for %s", est)
	}
}

// TestEmitDiagnosticsGitHub checks the problem-matcher output: plain
// stderr lines always, ::error workflow commands only under
// GITHUB_ACTIONS=true, with message escaping applied.
func TestEmitDiagnosticsGitHub(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("testdata", "anno.go"), "package p\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	diags := []analysis.Diagnostic{{
		Pos:      f.Package,
		Analyzer: "demo",
		Message:  "bad thing\nwith % newline",
	}}

	t.Setenv("GITHUB_ACTIONS", "")
	var out, errw bytes.Buffer
	driver.EmitDiagnostics(&out, &errw, fset, diags)
	if out.Len() != 0 {
		t.Errorf("workflow commands emitted outside GitHub Actions: %q", out.String())
	}
	if !strings.Contains(errw.String(), "bad thing") {
		t.Errorf("human diagnostic line missing: %q", errw.String())
	}

	t.Setenv("GITHUB_ACTIONS", "true")
	out.Reset()
	errw.Reset()
	driver.EmitDiagnostics(&out, &errw, fset, diags)
	want := "::error file=testdata/anno.go,line=1,col=1::bad thing%0Awith %25 newline (demo)\n"
	if out.String() != want {
		t.Errorf("workflow command:\n got %q\nwant %q", out.String(), want)
	}
}

func quote(s string) string { return `"` + s + `"` }

package driver

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"github.com/hdr4me/hdr4me/internal/analyzers/analysis"
)

// vetConfig is the unit description `go vet -vettool` hands the tool as
// a JSON file (see cmd/go/internal/work's buildVetConfig). Only the
// fields hdrvet consumes are declared.
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	IgnoredFiles []string
	ImportMap    map[string]string
	PackageFile  map[string]string
	GoVersion    string
	VetxOnly     bool
	VetxOutput   string

	SucceedOnTypecheckFailure bool
}

// RunUnit analyzes the single compilation unit described by the vet.cfg
// at cfgPath, printing diagnostics to stderr. It returns the number of
// findings; the caller exits non-zero when it is positive, which is how
// `go vet` learns the unit failed.
//
// Protocol obligations, in order: a unit flagged VetxOnly is a
// dependency loaded only for facts — hdrvet's analyzers are factless,
// so it writes an empty facts file and returns; otherwise the unit's
// GoFiles are type-checked against the export data in PackageFile
// (through ImportMap, which maps source import paths to canonical ones)
// and every per-unit analyzer runs; a whole-program analyzer cannot see
// the other packages from one unit, so it is skipped. The VetxOutput
// file must exist on success or cmd/go records the action as failed.
func RunUnit(cfgPath string, analyzers []*analysis.Analyzer) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 0, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}
	if cfg.Compiler != "" && cfg.Compiler != "gc" {
		return 0, fmt.Errorf("unsupported compiler %q", cfg.Compiler)
	}
	if cfg.VetxOnly {
		return 0, writeVetx(cfg.VetxOutput)
	}

	u, err := typeCheck(cfg.ImportPath, cfg.Dir, cfg.GoFiles, exportLookup(cfg.PackageFile), cfg.ImportMap)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, writeVetx(cfg.VetxOutput)
		}
		return 0, err
	}
	var perUnit []*analysis.Analyzer
	for _, a := range analyzers {
		if a.Run != nil {
			perUnit = append(perUnit, a)
		}
	}
	found, err := Run([]*Unit{u}, perUnit)
	if err != nil {
		return 0, err
	}
	diags := found[u]
	EmitDiagnostics(os.Stdout, os.Stderr, u.Fset, diags)
	if err := writeVetx(cfg.VetxOutput); err != nil {
		return 0, err
	}
	return len(diags), nil
}

// writeVetx writes the (empty — hdrvet has no facts) serialized-facts
// file cmd/go caches for importing units.
func writeVetx(path string) error {
	if path == "" {
		return nil
	}
	return os.WriteFile(path, []byte("hdrvet/no-facts\n"), 0o666)
}

// IsVetConfig reports whether arg names a vet.cfg file — the shape of a
// unitchecker invocation, as opposed to standalone package patterns.
func IsVetConfig(arg string) bool { return strings.HasSuffix(arg, ".cfg") }

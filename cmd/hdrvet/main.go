// Command hdrvet is the collector's invariant checker: a multichecker
// bundling the custom analyzers from internal/analyzers, including the
// dataflow-based ldpflow, nilness, and lockorder. It does not repeat
// vet's own passes: -vettool replaces them, so run plain `go vet ./...`
// as well (make lint and every CI cell do).
//
// It runs in two modes:
//
//	hdrvet [flags] ./...        # standalone: go list + analyze (make vet-fast)
//	go vet -vettool=$(pwd)/bin/hdrvet [flags] ./...   # unitchecker (make lint, CI)
//
// With no analyzer flags every analyzer runs; naming analyzers
// (-framedrain -wireframe) runs just those, and -fast is shorthand for
// the quick pre-commit pair framedrain+wireframe. Intentional
// exceptions are suppressed in source with
//
//	//hdrvet:ignore <analyzer> -- <reason>
//
// on the flagged line or the line above it; the reason is mandatory.
//
// hdrvet -suppressions [packages] audits every ignore directive in the
// tree: each is listed with its position and reason, and directives
// that no longer silence any finding (stale) or lack names/reason
// (malformed) are flagged and make the exit non-zero, so dead
// exceptions cannot linger.
//
// Under GitHub Actions (GITHUB_ACTIONS=true) every finding is also
// emitted as a ::error workflow command, which the runner renders as a
// PR annotation on the flagged line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/hdr4me/hdr4me/internal/analyzers/analysis"
	"github.com/hdr4me/hdr4me/internal/analyzers/driver"
	"github.com/hdr4me/hdr4me/internal/analyzers/framedrain"
	"github.com/hdr4me/hdr4me/internal/analyzers/kahansum"
	"github.com/hdr4me/hdr4me/internal/analyzers/ldpflow"
	"github.com/hdr4me/hdr4me/internal/analyzers/lockhold"
	"github.com/hdr4me/hdr4me/internal/analyzers/lockorder"
	"github.com/hdr4me/hdr4me/internal/analyzers/nilness"
	"github.com/hdr4me/hdr4me/internal/analyzers/rangemap"
	"github.com/hdr4me/hdr4me/internal/analyzers/wireframe"
)

// version is the string `go vet` hashes into its action cache key
// (the -V=full handshake); bump it when analyzer behavior changes so
// cached clean results are invalidated.
const version = "v1.2.0"

var all = []*analysis.Analyzer{
	framedrain.Analyzer,
	kahansum.Analyzer,
	ldpflow.Analyzer,
	lockhold.Analyzer,
	lockorder.Analyzer,
	nilness.Analyzer,
	rangemap.Analyzer,
	wireframe.Analyzer,
}

func main() {
	// `go vet` probes the tool before use: `hdrvet -V=full` must print
	// a "name version semver" line, and `hdrvet -flags` the JSON list
	// of flags it may be handed.
	versionFlag := flag.String("V", "", "print version (the go vet tool-ID handshake)")
	flagsFlag := flag.Bool("flags", false, "print the tool's analyzer flags as JSON and exit")
	fast := flag.Bool("fast", false, "run only framedrain and wireframe (the quick pre-commit set)")
	suppressions := flag.Bool("suppressions", false, "audit //hdrvet:ignore directives: list all, flag stale and malformed ones")
	selected := make(map[string]*bool, len(all))
	for _, a := range all {
		selected[a.Name] = flag.Bool(a.Name, false, "run only named analyzers: "+firstLine(a.Doc))
	}
	flag.Usage = usage
	flag.Parse()

	if *versionFlag != "" {
		fmt.Printf("hdrvet version %s\n", version)
		return
	}
	if *flagsFlag {
		printFlags()
		return
	}

	analyzers := pick(selected, *fast)
	args := flag.Args()

	if len(args) == 1 && driver.IsVetConfig(args[0]) {
		findings, err := driver.RunUnit(args[0], analyzers)
		exitOn(err, findings)
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	units, err := driver.Load(args)
	if err != nil {
		exitOn(err, 0)
	}
	if *suppressions {
		flagged, err := auditSuppressions(units)
		exitOn(err, flagged)
	}
	findings := 0
	for _, u := range units {
		diags, fset, err := driver.Run(u, analyzers)
		if err != nil {
			exitOn(err, 0)
		}
		driver.EmitDiagnostics(os.Stdout, os.Stderr, fset, diags)
		findings += len(diags)
	}
	exitOn(nil, findings)
}

// auditSuppressions lists every //hdrvet:ignore directive in the
// loaded units with its position and reason, marking the ones that are
// malformed or stale (silencing no current finding — the invariant
// they excepted holds again, so the directive should go). It returns
// how many were flagged; a clean audit returns 0.
func auditSuppressions(units []*driver.Unit) (int, error) {
	flagged, total := 0, 0
	for _, u := range units {
		ds := analysis.Directives(u.Fset, u.Files)
		if len(ds) == 0 {
			continue
		}
		// Raw findings: what the directives would be suppressing.
		raw, fset, err := driver.RunRaw(u, all)
		if err != nil {
			return 0, err
		}
		for _, d := range ds {
			total++
			live := false
			for _, diag := range raw {
				if d.Suppresses(fset, diag) {
					live = true
					break
				}
			}
			status := ""
			switch {
			case d.Malformed():
				status = "  [MALFORMED: want \"" + analysis.IgnorePrefix + " <analyzer> -- <reason>\"]"
				flagged++
			case !live:
				status = "  [STALE: suppresses nothing]"
				flagged++
			}
			fmt.Printf("%s: %s -- %s%s\n",
				fset.Position(d.Pos), strings.Join(d.Names, " "), d.Reason, status)
		}
	}
	fmt.Printf("%d suppression(s), %d flagged\n", total, flagged)
	return flagged, nil
}

// pick returns the analyzers to run: the named ones, the -fast pair, or
// everything.
func pick(selected map[string]*bool, fast bool) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, a := range all {
		if *selected[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) > 0 {
		return out
	}
	if fast {
		return []*analysis.Analyzer{framedrain.Analyzer, wireframe.Analyzer}
	}
	return all
}

func exitOn(err error, findings int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdrvet:", err)
		os.Exit(1)
	}
	if findings > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

// printFlags answers `go vet`'s -flags probe: the set of boolean flags
// the driver may pass back to the tool.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	flags := []jsonFlag{{Name: "fast", Bool: true, Usage: "run only framedrain and wireframe"}}
	for _, a := range all {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: firstLine(a.Doc)})
	}
	data, err := json.Marshal(flags)
	if err != nil {
		exitOn(err, 0)
	}
	fmt.Println(string(data))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func usage() {
	fmt.Fprintf(os.Stderr, `hdrvet checks hdr4me's wire, locking, and float-determinism invariants.

usage:
  hdrvet [analyzer flags] [packages]     analyze packages (default ./...)
  go vet -vettool=/path/to/hdrvet [analyzer flags] [packages]

analyzers:
`)
	for _, a := range all {
		fmt.Fprintf(os.Stderr, "  -%-12s %s\n", a.Name, firstLine(a.Doc))
	}
	fmt.Fprintf(os.Stderr, "  -%-12s %s\n", "fast", "framedrain + wireframe only (pre-commit quick set)")
	fmt.Fprintf(os.Stderr, "  -%-12s %s\n", "suppressions", "audit ignore directives: list all, flag stale/malformed")
	fmt.Fprintf(os.Stderr, "\nsuppress an intentional exception with:\n  %s <analyzer> -- <reason>\n", analysis.IgnorePrefix)
}

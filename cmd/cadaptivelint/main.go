// Command cadaptivelint runs this repository's determinism and hygiene
// checks (internal/lint) over the module and exits nonzero on findings.
// It is a CI gate: scripts/ci.sh fails if any invariant regresses.
//
// Usage:
//
//	cadaptivelint [-checks errcheck,norand] [-format text|json] [packages]
//	cadaptivelint ./...
//	cadaptivelint -list
//
// Package patterns are module-relative ("./...", "./internal/core",
// "./internal/..."); the default is ./... . Exit status is 0 when clean,
// 1 on findings, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cadaptivelint:", err)
	}
	os.Exit(code)
}

// jsonSchema versions the -format json output. Bump it on any change to
// jsonReport/jsonDiagnostic shape or field semantics; consumers (and the
// golden snapshot test) key off it.
const jsonSchema = "cadaptivelint/2"

// jsonReport is the -format json output schema.
type jsonReport struct {
	Schema      string           `json:"schema"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	Suppressed  []jsonDiagnostic `json:"suppressed"`
}

// jsonDiagnostic flattens a lint.Diagnostic for machine consumption.
type jsonDiagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

// run is the whole CLI behind main, with its output stream injected so
// tests can execute the real path in-process. It returns the process exit
// code; err carries the message for stderr when the code is nonzero for a
// reason other than findings.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("cadaptivelint", flag.ContinueOnError)
	var (
		format = fs.String("format", "text", "output format: text | json")
		checks = fs.String("checks", "", "comma-separated subset of checks to run (default all)")
		list   = fs.Bool("list", false, "list available checks, then exit")
		root   = fs.String("root", "", "module root (default: locate go.mod upwards from the working directory)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil // flag package already printed the message
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}
	if *format != "text" && *format != "json" {
		return 2, fmt.Errorf("unknown format %q (want text or json)", *format)
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		return 2, err
	}

	modRoot := *root
	if modRoot == "" {
		modRoot, err = findModuleRoot()
		if err != nil {
			return 2, err
		}
	}
	// Cached: repeated invocations in one process (tests, future multi-root
	// drivers) re-use the type-checked tree instead of re-loading it per
	// invocation path.
	mod, err := lint.LoadModuleCached(modRoot)
	if err != nil {
		return 2, err
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected, err := selectPackages(mod, patterns)
	if err != nil {
		return 2, err
	}

	scopes := lint.DefaultScopes()
	var report jsonReport
	findings := 0
	for _, pkg := range selected {
		res := lint.RunPackage(pkg, analyzers, scopes)
		findings += len(res.Diagnostics)
		if *format == "json" {
			report.Diagnostics = append(report.Diagnostics, toJSON(modRoot, res.Diagnostics)...)
			report.Suppressed = append(report.Suppressed, toJSON(modRoot, res.Suppressed)...)
			continue
		}
		for _, d := range res.Diagnostics {
			rel := d
			rel.Pos.Filename = relPath(modRoot, d.Pos.Filename)
			fmt.Fprintln(stdout, rel.String())
		}
	}

	if *format == "json" {
		report.Schema = jsonSchema
		if report.Diagnostics == nil {
			report.Diagnostics = []jsonDiagnostic{}
		}
		if report.Suppressed == nil {
			report.Suppressed = []jsonDiagnostic{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return 2, err
		}
	}
	if findings > 0 {
		if *format == "text" {
			fmt.Fprintf(stdout, "%d finding(s)\n", findings)
		}
		return 1, nil
	}
	return 0, nil
}

func toJSON(root string, ds []lint.Diagnostic) []jsonDiagnostic {
	out := make([]jsonDiagnostic, len(ds))
	for i, d := range ds {
		out[i] = jsonDiagnostic{
			Check:   d.Check,
			File:    relPath(root, d.Pos.Filename),
			Line:    d.Pos.Line,
			Column:  d.Pos.Column,
			Message: d.Message,
		}
	}
	return out
}

// relPath renders file relative to the module root when possible, for
// stable output regardless of where the module is checked out.
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// selectAnalyzers resolves the -checks flag against the registry.
func selectAnalyzers(flagValue string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if flagValue == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(flagValue, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(all))
			for _, a := range all {
				known = append(known, a.Name)
			}
			return nil, fmt.Errorf("unknown check %q (have %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// selectPackages filters the module's packages by CLI patterns: "./..."
// (everything), "./dir/..." (subtree) or "./dir" (exact). Patterns are
// resolved against the working directory, so running from a subdirectory
// restricts to that subtree naturally.
func selectPackages(mod *lint.Module, patterns []string) ([]*lint.Package, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	type rule struct {
		rel     string
		subtree bool
	}
	var rules []rule
	for _, pat := range patterns {
		subtree := false
		if strings.HasSuffix(pat, "/...") {
			subtree = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			subtree = true
			pat = "."
		}
		abs := pat
		if !filepath.IsAbs(pat) {
			abs = filepath.Join(cwd, pat)
		}
		rel, err := filepath.Rel(mod.Root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("pattern %q is outside the module", pat)
		}
		if rel == "." {
			rel = ""
		}
		rules = append(rules, rule{rel: filepath.ToSlash(rel), subtree: subtree})
	}
	var out []*lint.Package
	seen := map[string]bool{}
	for _, pkg := range mod.Pkgs {
		for _, r := range rules {
			match := pkg.Rel == r.rel || (r.subtree && (r.rel == "" || strings.HasPrefix(pkg.Rel, r.rel+"/")))
			if match && !seen[pkg.Rel] {
				seen[pkg.Rel] = true
				out = append(out, pkg)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("patterns %v matched no packages", patterns)
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

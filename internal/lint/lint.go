package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DirectiveCheck is the pseudo-check name under which the driver reports
// malformed //lint: comments. It is not suppressible and not listed in
// Analyzers(): a broken suppression must always surface.
const DirectiveCheck = "directive"

// Diagnostic is one finding, positioned for file:line:col reporting.
//
// Anchor is an optional second position a suppression directive may attach
// to. The flow-aware checks use it to tie a finding back to the
// declaration it is *about*: lockguard reports an unguarded access at the
// access site but anchors it at the guarded field's declaration, so one
// //lint:ignore on the field line can waive every finding for that field
// instead of scattering directives across call sites.
type Diagnostic struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"-"`
	Anchor  token.Position `json:"-"`
	Message string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one check: a name for directives and CLI filters, a one-line
// doc string, and a Run function that inspects a type-checked package
// through its Pass and reports findings.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one package. Mod is the whole
// module when the package was loaded through LoadModule, or nil for
// packages the testdata harness loads alone; module-aware
// analyzers (hotpath's call-graph walk) degrade to package-local analysis
// when it is absent.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Mod      *Module

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportfAnchored records a finding at pos that a suppression directive at
// anchor (a related declaration) also covers.
func (p *Pass) ReportfAnchored(pos, anchor token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Anchor:  p.Fset.Position(anchor),
		Message: fmt.Sprintf(format, args...),
	})
}

// Result is the outcome of running analyzers over one package: the findings
// that survived suppression, and the ones an //lint:ignore directive
// absorbed (kept visible so tests — and curious humans — can audit what is
// being suppressed and why).
type Result struct {
	Diagnostics []Diagnostic
	Suppressed  []Diagnostic
}

// Scope restricts where a check runs, as module-relative package paths
// ("internal/core"; "" is the module root). A package is in scope when its
// path is at or below one of Only (or Only is empty) and not at or below
// any of Exclude. Matching is path-segment-aware: "internal/core" covers
// "internal/core/sub" but not "internal/corex".
type Scope struct {
	Only    []string
	Exclude []string
}

// Matches reports whether the module-relative package path rel is in scope.
func (s Scope) Matches(rel string) bool {
	for _, p := range s.Exclude {
		if pathHasPrefix(rel, p) {
			return false
		}
	}
	if len(s.Only) == 0 {
		return true
	}
	for _, p := range s.Only {
		if pathHasPrefix(rel, p) {
			return true
		}
	}
	return false
}

func pathHasPrefix(path, prefix string) bool {
	if prefix == "" || path == prefix {
		return true
	}
	return strings.HasPrefix(path, prefix+"/")
}

// RunPackage runs every analyzer (filtered by scopes, keyed by analyzer
// name; a missing entry means "everywhere") over pkg and partitions the
// findings by the package's //lint:ignore directives. Malformed //lint:
// comments are reported under DirectiveCheck regardless of scope and are
// never suppressible.
func RunPackage(pkg *Package, analyzers []*Analyzer, scopes map[string]Scope) Result {
	var directives []ignoreDirective
	var res Result
	for _, f := range pkg.Files {
		ds, malformed := collectDirectives(pkg.Fset, f)
		directives = append(directives, ds...)
		res.Diagnostics = append(res.Diagnostics, malformed...)
	}

	for _, a := range analyzers {
		if scope, ok := scopes[a.Name]; ok && !scope.Matches(pkg.Rel) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Mod:      pkg.Mod,
		}
		a.Run(pass)
		for _, d := range pass.diags {
			if suppressed(directives, d) {
				res.Suppressed = append(res.Suppressed, d)
			} else {
				res.Diagnostics = append(res.Diagnostics, d)
			}
		}
	}
	sortDiagnostics(res.Diagnostics)
	sortDiagnostics(res.Suppressed)
	return res
}

func suppressed(directives []ignoreDirective, d Diagnostic) bool {
	for _, dir := range directives {
		if dir.file == d.Pos.Filename && dir.suppresses(d.Check, d.Pos.Line) {
			return true
		}
		if d.Anchor.IsValid() && dir.file == d.Anchor.Filename && dir.suppresses(d.Check, d.Anchor.Line) {
			return true
		}
	}
	return false
}

// sortDiagnostics orders findings deterministically: by file, line, column,
// check, message. The driver's own output must obviously not depend on map
// or scheduling order.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// UnusedExport reports exported package-level funcs, types, vars and
// consts that no non-test file of the module references. The loader
// parses non-test files only, so every types.Info.Uses entry it records is
// a non-test reference; an identifier that only tests call is therefore
// reported, and belongs in a _test.go file (or nowhere). Uses inside the
// declaring package count: exporting such an identifier is harmless and
// unexporting it deletes no code. Methods and struct fields are out of
// scope, and so is package main, whose exports nothing can import.
//
// DefaultScopes limits the check to internal/, the packages whose only
// callers live in this module. Under LoadModule the use index covers
// every package (cmd/, examples/ and perfbench/ included); for a package
// the testdata harness loads alone it is package-local.
var UnusedExport = &Analyzer{
	Name: "unusedexport",
	Doc:  "no exported package-level identifier that only tests reference",
	Run:  runUnusedExport,
}

// useIndex is the set of package-level objects some loaded file refers to.
type useIndex map[types.Object]bool

var (
	useIndexMu    sync.Mutex
	useIndexCache = map[*Module]useIndex{}
)

// buildUseIndex indexes the whole module's uses once per Module (every
// package's pass shares the memoized index), or just the current package
// when it was loaded standalone.
func buildUseIndex(pass *Pass) useIndex {
	if pass.Mod == nil {
		idx := useIndex{}
		indexUses(idx, pass.Info)
		return idx
	}
	useIndexMu.Lock()
	defer useIndexMu.Unlock()
	if idx, ok := useIndexCache[pass.Mod]; ok {
		return idx
	}
	idx := useIndex{}
	for _, p := range pass.Mod.Pkgs {
		indexUses(idx, p.Info)
	}
	useIndexCache[pass.Mod] = idx
	return idx
}

func indexUses(idx useIndex, info *types.Info) {
	for _, obj := range info.Uses { //lint:ignore maporder set insertion is order-independent
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a call of Shuffle[int] uses Shuffle
		}
		idx[obj] = true
	}
}

func runUnusedExport(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	idx := buildUseIndex(pass)
	report := func(id *ast.Ident, kind string) {
		if !id.IsExported() {
			return
		}
		if obj := pass.Info.Defs[id]; obj != nil && !idx[obj] {
			pass.Reportf(id.Pos(), "exported %s %s is referenced by no non-test file; delete it or move it into a _test.go file", kind, id.Name)
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					report(d.Name, "func")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(s.Name, "type")
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, name := range s.Names {
							report(name, kind)
						}
					}
				}
			}
		}
	}
}

package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one parsed, type-checked, non-test package of the module.
// Mod points back at the module that loaded it (nil for a package the
// test harness loads alone), so module-aware analyzers can walk call edges
// into sibling packages.
type Package struct {
	Path  string // full import path, e.g. "repro/internal/core"
	Rel   string // module-relative path, "" for the module root
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Mod   *Module
}

// Module is the whole repository, loaded once. All packages share one
// FileSet and one (caching) source importer for the standard library.
type Module struct {
	Root string // absolute module root directory
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // dependency order, then by path
}

// Lookup returns the package with the given module-relative path.
func (m *Module) Lookup(rel string) *Package {
	for _, p := range m.Pkgs {
		if p.Rel == rel {
			return p
		}
	}
	return nil
}

// LoadModule parses and type-checks every non-test package under root
// (which must contain go.mod). Directories named testdata or vendor,
// hidden directories, and _-prefixed directories are skipped — testdata
// packages deliberately contain the violations the checks hunt for.
func LoadModule(root string) (*Module, error) {
	return loadModuleWith(root, stdImporter())
}

// loadModuleWith is LoadModule with an explicit stdlib importer, split out
// so the loader benchmark can measure the shared importer against a fresh
// one per load (the pre-cache behavior).
func loadModuleWith(root string, std types.Importer) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	mod := &Module{Root: root, Path: modPath, Fset: fset}

	type parsed struct {
		pkg     *Package
		imports map[string]bool // module-internal imports only
	}
	byPath := map[string]*parsed{}

	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if dir != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, perr := parseDir(fset, dir)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(root, dir)
		if rerr != nil {
			return rerr
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		importPath := modPath
		if rel != "" {
			importPath = modPath + "/" + rel
		}
		p := &parsed{
			pkg:     &Package{Path: importPath, Rel: rel, Dir: dir, Fset: fset, Files: files},
			imports: map[string]bool{},
		}
		for _, f := range files {
			for _, imp := range f.Imports {
				path, uerr := strconv.Unquote(imp.Path.Value)
				if uerr != nil {
					continue
				}
				if path == modPath || strings.HasPrefix(path, modPath+"/") {
					p.imports[path] = true
				}
			}
		}
		byPath[importPath] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Type-check in dependency order so module-internal imports resolve to
	// already-checked packages. Import cycles cannot occur in compilable Go;
	// if one sneaks in (the tree is broken), fail with the remainder listed.
	checked := map[string]*types.Package{}
	imp := &moduleImporter{
		checked: checked,
		source:  std,
	}
	order := make([]string, 0, len(byPath))
	for path := range byPath {
		order = append(order, path) //lint:ignore maporder order is sorted immediately below
	}
	sort.Strings(order)
	for len(order) > 0 {
		progress := false
		var remaining []string
		for _, path := range order {
			p := byPath[path]
			ready := true
			for dep := range p.imports {
				if _, ok := checked[dep]; !ok {
					if _, internal := byPath[dep]; internal {
						ready = false
						break
					}
				}
			}
			if !ready {
				remaining = append(remaining, path)
				continue
			}
			if err := typeCheck(p.pkg, imp); err != nil {
				return nil, err
			}
			p.pkg.Mod = mod
			checked[path] = p.pkg.Types
			mod.Pkgs = append(mod.Pkgs, p.pkg)
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("lint: import cycle or missing dependency among %s", strings.Join(remaining, ", "))
		}
		order = remaining
	}
	return mod, nil
}

// stdImporter returns the process-wide standard-library source importer.
// Building one is the expensive part of a load — it parses and checks
// every stdlib package the module touches from source — so all loads in a
// process share one instance, and repeat imports hit its internal cache.
// It owns a dedicated FileSet: stdlib positions are never rendered in
// diagnostics (analyzers only report positions of module AST nodes), so
// divorcing them from the module FileSet is safe.
func stdImporter() types.Importer {
	stdImpOnce.Do(func() {
		stdImp = &lockedImporter{imp: freshStdImporter()}
	})
	return stdImp
}

var (
	stdImpOnce sync.Once
	stdImp     types.Importer
)

// freshStdImporter builds an uncached stdlib source importer with its own
// FileSet. The loader benchmark uses it directly to measure what every
// load used to pay before stdImporter existed.
func freshStdImporter() types.Importer {
	return importer.ForCompiler(token.NewFileSet(), "source", nil)
}

// lockedImporter serializes Import calls: the go/importer source importer
// caches internally but is not documented as safe for concurrent use.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
}

// LoadModuleCached memoizes LoadModule by absolute root path, so a driver
// that resolves several package patterns against the same module (the
// cadaptivelint CLI with ./... plus explicit paths) type-checks the tree
// once per process instead of once per pattern. Errors are memoized too:
// a broken tree fails the same way for every caller.
func LoadModuleCached(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modCacheMu.Lock()
	defer modCacheMu.Unlock()
	if e, ok := modCache[abs]; ok {
		return e.mod, e.err
	}
	mod, err := LoadModule(abs)
	modCache[abs] = modCacheEntry{mod: mod, err: err}
	return mod, err
}

type modCacheEntry struct {
	mod *Module
	err error
}

var (
	modCacheMu sync.Mutex
	modCache   = map[string]modCacheEntry{}
)

// parseDir parses the non-test Go files of dir (with comments, which the
// suppression directives live in), sorted by file name for determinism.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("lint: %s holds two packages (%s and %s); build-tagged dirs are not supported", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck populates pkg.Types and pkg.Info.
func typeCheck(pkg *Package, imp types.Importer) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	cfg := &types.Config{Importer: imp}
	tpkg, err := cfg.Check(pkg.Path, pkg.Fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// moduleImporter resolves module-internal imports to packages this run
// already type-checked, and everything else (the standard library — the
// module has no external dependencies) through the caching source importer.
type moduleImporter struct {
	checked map[string]*types.Package
	source  types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.source.Import(path)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mp := strings.TrimSpace(rest)
			mp = strings.Trim(mp, `"`)
			if mp != "" {
				return mp, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

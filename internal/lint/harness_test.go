package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"testing"
)

// loadDir parses and type-checks the single package in dir against the
// standard library only. The analyzer test harness uses it to load
// testdata packages that the module walk deliberately skips.
func loadDir(dir string) (*Package, error) {
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg := &Package{
		Path:  files[0].Name.Name,
		Rel:   files[0].Name.Name,
		Dir:   dir,
		Fset:  fset,
		Files: files,
	}
	imp := &moduleImporter{
		checked: map[string]*types.Package{},
		source:  stdImporter(),
	}
	if err := typeCheck(pkg, imp); err != nil {
		return nil, err
	}
	return pkg, nil
}

// expectRe extracts `want "regex"` and `suppressed "regex"` assertions from
// testdata comments. A want must be matched by a surviving diagnostic on
// its line; a suppressed must be matched by a directive-absorbed one.
var expectRe = regexp.MustCompile(`(want|suppressed) "((?:[^"\\]|\\.)*)"`)

type expectation struct {
	kind    string // "want" or "suppressed"
	pattern string
	file    string
	line    int
	matched bool
}

// runTestdata loads testdata/src/<pkgdir>, runs the analyzer unscoped, and
// checks the result against the package's inline expectations — both that
// every annotated diagnostic fires and that every annotated suppression
// actually absorbed one.
func runTestdata(t *testing.T, a *Analyzer, pkgdir string) {
	t.Helper()
	pkg, err := loadDir(filepath.Join("testdata", "src", pkgdir))
	if err != nil {
		t.Fatal(err)
	}
	res := RunPackage(pkg, []*Analyzer{a}, nil)

	var exps []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range expectRe.FindAllStringSubmatch(c.Text, -1) {
					exps = append(exps, &expectation{
						kind:    m[1],
						pattern: m[2],
						file:    pos.Filename,
						line:    pos.Line,
					})
				}
			}
		}
	}

	match := func(kind string, ds []Diagnostic) {
		for _, d := range ds {
			found := false
			for _, e := range exps {
				if e.matched || e.kind != kind || e.file != d.Pos.Filename || e.line != d.Pos.Line {
					continue
				}
				ok, err := regexp.MatchString(e.pattern, d.Message)
				if err != nil {
					t.Errorf("%s:%d: bad expectation regexp %q: %v", e.file, e.line, e.pattern, err)
					continue
				}
				if ok {
					e.matched = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("unexpected %s diagnostic: %s", kind, d)
			}
		}
	}
	match("want", res.Diagnostics)
	match("suppressed", res.Suppressed)
	for _, e := range exps {
		if !e.matched {
			t.Errorf("%s:%d: expected %s diagnostic matching %q never fired", e.file, e.line, e.kind, e.pattern)
		}
	}
}

// TestHarnessSelfCheck guards the harness against the silent-green failure
// mode: a package with expectations but a broken loader or analyzer must
// fail, not pass vacuously.
func TestHarnessSelfCheck(t *testing.T) {
	pkg, err := loadDir(filepath.Join("testdata", "src", "norand"))
	if err != nil {
		t.Fatal(err)
	}
	res := RunPackage(pkg, []*Analyzer{NoRand}, nil)
	if len(res.Diagnostics) == 0 || len(res.Suppressed) == 0 {
		t.Fatalf("norand testdata produced %d diagnostics / %d suppressed; the harness would be vacuous",
			len(res.Diagnostics), len(res.Suppressed))
	}
	for _, d := range res.Diagnostics {
		if d.Check != "norand" {
			t.Errorf("unexpected check %q in single-analyzer run: %s", d.Check, d)
		}
	}
	var _ fmt.Stringer = res.Diagnostics[0] // Diagnostic must keep printing as file:line:col
}

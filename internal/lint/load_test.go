package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

const fixtureModule = "testdata/module"

// TestLoadModuleFixture pins the module loader's contract on the fixture
// module: both packages load in dependency order, share one FileSet, carry
// the Mod back-pointer, and module-internal imports resolve to the same
// *types.Package instance (object identity is what lets hotpath's index
// look up cross-package callees).
func TestLoadModuleFixture(t *testing.T) {
	mod, err := LoadModule(fixtureModule)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Path != "example/fix" {
		t.Fatalf("module path %q, want example/fix", mod.Path)
	}
	if len(mod.Pkgs) != 2 {
		t.Fatalf("%d packages, want 2", len(mod.Pkgs))
	}
	a, b := mod.Lookup("pkga"), mod.Lookup("pkgb")
	if a == nil || b == nil {
		t.Fatalf("missing fixture packages: pkga=%v pkgb=%v", a, b)
	}
	if a.Mod != mod || b.Mod != mod {
		t.Error("packages do not point back at their module")
	}
	if a.Fset != mod.Fset || b.Fset != mod.Fset {
		t.Error("packages do not share the module FileSet")
	}
	for _, imp := range a.Types.Imports() {
		if imp.Path() == "example/fix/pkgb" && imp != b.Types {
			t.Error("pkga's import of pkgb is not the checked instance: object identity broken")
		}
	}
}

// TestHotPathCrossPackage runs hotpath over the fixture module: the
// allocation inside pkgb.Grow must surface in pkga's pass at the call
// edge, and the call to the independently-annotated pkgb.Hot must not.
func TestHotPathCrossPackage(t *testing.T) {
	mod, err := LoadModule(fixtureModule)
	if err != nil {
		t.Fatal(err)
	}
	a := mod.Lookup("pkga")
	res := RunPackage(a, []*Analyzer{HotPath}, nil)
	if len(res.Suppressed) != 0 {
		t.Errorf("unexpected suppressions: %v", res.Suppressed)
	}
	if len(res.Diagnostics) != 1 {
		t.Fatalf("%d diagnostics, want exactly 1 (the Grow call edge): %v", len(res.Diagnostics), res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if !strings.Contains(d.Message, "Access") || !strings.Contains(d.Message, "pkgb.Grow") || !strings.Contains(d.Message, "make") {
		t.Errorf("cross-package finding lost its root/callee/site classification: %s", d)
	}
	if filepath.Base(d.Pos.Filename) != "pkga.go" {
		t.Errorf("cross-package finding reported in %s, want the call edge in pkga.go", d.Pos.Filename)
	}

	// pkgb's own pass must stay clean: Grow is not annotated there, and
	// Hot allocates nothing.
	bres := RunPackage(mod.Lookup("pkgb"), []*Analyzer{HotPath}, nil)
	if len(bres.Diagnostics) != 0 {
		t.Errorf("pkgb pass reported %v; cross-package sites must not double-report", bres.Diagnostics)
	}
}

// TestUnusedExportModule runs unusedexport over the fixture module: pkgb's
// Grow and Hot are called from pkga's non-test code and are not reported;
// Describe, which nothing calls, is. Nothing imports pkga, so both its
// exports are reported.
func TestUnusedExportModule(t *testing.T) {
	mod, err := LoadModule(fixtureModule)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pkg  string
		want []string
	}{
		{"pkgb", []string{"Describe"}},
		{"pkga", []string{"Access", "Composed"}},
	} {
		res := RunPackage(mod.Lookup(tc.pkg), []*Analyzer{UnusedExport}, nil)
		var got []string
		for _, d := range res.Diagnostics {
			for _, name := range []string{"Access", "Composed", "Describe", "Grow", "Hot"} {
				if strings.Contains(d.Message, " "+name+" ") {
					got = append(got, name)
				}
			}
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s: reported %v, want %v (diagnostics %v)", tc.pkg, got, tc.want, res.Diagnostics)
		}
	}
}

// TestLoadModuleCached pins the memoization contract: same absolute root,
// same *Module instance.
func TestLoadModuleCached(t *testing.T) {
	m1, err := LoadModuleCached(fixtureModule)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModuleCached(fixtureModule)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("LoadModuleCached returned distinct modules for one root")
	}
	abs, err := filepath.Abs(fixtureModule)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := LoadModuleCached(abs)
	if err != nil {
		t.Fatal(err)
	}
	if m3 != m1 {
		t.Error("relative and absolute spellings of one root missed the cache")
	}
}

// BenchmarkLoadModuleSharedImporter measures a module load through the
// process-wide stdlib importer (steady state: stdlib already checked).
// Compare against BenchmarkLoadModuleFreshImporter, which rebuilds the
// stdlib importer every load — the pre-cache behavior, where every
// cadaptivelint invocation path re-checked fmt/sync/sort from source.
func BenchmarkLoadModuleSharedImporter(b *testing.B) {
	if _, err := LoadModule(fixtureModule); err != nil { // warm the stdlib cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadModule(fixtureModule); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadModuleFreshImporter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := loadModuleWith(fixtureModule, freshStdImporter()); err != nil {
			b.Fatal(err)
		}
	}
}

package lint

import "testing"

// One testdata package per shipped check; the harness asserts both the
// expected diagnostics and the expected suppressions inline.

func TestNoRand(t *testing.T)    { runTestdata(t, NoRand, "norand") }
func TestNoTime(t *testing.T)    { runTestdata(t, NoTime, "notime") }
func TestErrCheck(t *testing.T)  { runTestdata(t, ErrCheck, "errcheck") }
func TestMapOrder(t *testing.T)  { runTestdata(t, MapOrder, "maporder") }
func TestMutexCopy(t *testing.T) { runTestdata(t, MutexCopy, "mutexcopy") }
func TestNoRecover(t *testing.T) { runTestdata(t, NoRecover, "norecover") }
func TestLockGuard(t *testing.T) { runTestdata(t, LockGuard, "lockguard") }
func TestHotPath(t *testing.T)   { runTestdata(t, HotPath, "hotpath") }

// TestUnusedExport covers the package-local cases; the fixture module
// test below covers references from another package.
func TestUnusedExport(t *testing.T) {
	runTestdata(t, UnusedExport, "unusedexport")
	runTestdata(t, UnusedExport, "unusedexportmain")
}

// TestAnalyzersRegistry keeps the registry aligned with the shipped checks
// and their documented names (the names are load-bearing: scopes and
// //lint:ignore directives key off them).
func TestAnalyzersRegistry(t *testing.T) {
	want := []string{"errcheck", "hotpath", "lockguard", "maporder", "mutexcopy", "norand", "norecover", "notime", "unusedexport"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("%d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d named %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run function", a.Name)
		}
		if a.Name == DirectiveCheck {
			t.Errorf("analyzer %q collides with the driver's directive pseudo-check", a.Name)
		}
	}
	scopes := DefaultScopes()
	for name := range scopes {
		found := false
		for _, a := range got {
			if a.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("DefaultScopes entry %q names no analyzer", name)
		}
	}
}

// TestScopeMatches pins the path-segment-aware prefix semantics.
func TestScopeMatches(t *testing.T) {
	cases := []struct {
		scope Scope
		rel   string
		want  bool
	}{
		{Scope{}, "internal/core", true},
		{Scope{Only: []string{"internal/core"}}, "internal/core", true},
		{Scope{Only: []string{"internal/core"}}, "internal/core/sub", true},
		{Scope{Only: []string{"internal/core"}}, "internal/corex", false},
		{Scope{Only: []string{"internal/core"}}, "cmd/cadaptive", false},
		{Scope{Exclude: []string{"internal/xrand"}}, "internal/xrand", false},
		{Scope{Exclude: []string{"internal/xrand"}}, "internal/xrandom", true},
		{Scope{Only: []string{""}}, "anything/at/all", true},
		{Scope{Only: []string{"internal"}, Exclude: []string{"internal/lint"}}, "internal/lint/sub", false},
	}
	for _, c := range cases {
		if got := c.scope.Matches(c.rel); got != c.want {
			t.Errorf("Scope{Only:%v Exclude:%v}.Matches(%q) = %v, want %v",
				c.scope.Only, c.scope.Exclude, c.rel, got, c.want)
		}
	}
}

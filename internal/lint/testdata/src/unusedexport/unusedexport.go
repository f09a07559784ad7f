// Package unusedexport exercises the unusedexport check: an exported
// package-level identifier that no non-test file references is reported;
// a referenced one, an unexported one and a method are not.
package unusedexport

// OnlyTests is called from unusedexport_test.go alone, which the loader
// never parses.
func OnlyTests() int { return 1 } // want "exported func OnlyTests is referenced by no non-test file"

// Orphan is referenced by nothing at all.
type Orphan struct{} // want "exported type Orphan is referenced by no non-test file"

// Limit and Default are unreferenced too.
const Limit = 4 // want "exported const Limit is referenced by no non-test file"

var Default = 2 // want "exported var Default is referenced by no non-test file"

// Used is referenced below, from the same package's non-test code.
func Used() int { return 3 }

// Counter is referenced by total; its method is out of scope.
type Counter struct{ n int }

// Unreferenced is a method: not reported, even though nothing calls it.
func (c *Counter) Unreferenced() int { return c.n }

// Shuffle is generic; an instantiated call still counts as a use.
func Shuffle[T any](p []T) []T { return p }

func total() int {
	var c Counter
	return c.n + Used() + len(Shuffle([]int{1}))
}

// unexported identifiers are never reported.
func unexported() int { return total() }

var _ = unexported

//lint:ignore unusedexport kept as the fixture's suppression case
func Waived() {} // suppressed "exported func Waived"

// Package store declares the fixture's internal identifiers.
package store

// Used has a non-test caller.
func Used() int { return 1 }

// OnlyTested is called from a _test.go file alone.
func OnlyTested() int { return 2 } // want "OnlyTested is exported but no non-test code uses it"

// Recursive calls itself; a use inside its own declaration does not count.
func Recursive(n int) int { // want "Recursive is exported but no non-test code uses it"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Kept is only tested, and kept on purpose.
//
//hdrvet:ignore testonly -- fixture: a helper the tests of several packages share
func Kept() int { return 3 }

// Orphan is named only by its method's receiver and by tests.
type Orphan struct{} // want "Orphan is exported but no non-test code uses it"

// Name is only tested.
func (Orphan) Name() string { return "orphan" } // want "Orphan.Name is exported but no non-test code uses it"

// BenchOnly is used from the nested module alone.
func BenchOnly() int { return 4 }

// Query is re-exported by alias from package api.
type Query struct{}

// Send is public API through the alias.
func (Query) Send() error { return nil }

// shape is an in-module interface.
type shape interface{ Area() float64 }

// Square satisfies shape; nothing calls Area on a Square directly.
type Square struct{ Side float64 }

// Area is reached through shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Total sums areas through the interface.
func Total(sq []Square) float64 {
	var t float64
	for _, s := range sq {
		var sh shape = s
		t += sh.Area()
	}
	return t
}

// Label is printed by fmt in another package.
type Label string

// String satisfies fmt.Stringer.
func (l Label) String() string { return string(l) }

// Package support is test support: only other packages' tests import it.
package support

// Fake is exported for tests and not reported.
func Fake() int { return 5 }

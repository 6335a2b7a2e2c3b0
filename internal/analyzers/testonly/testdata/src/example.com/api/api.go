// Package api is the fixture's public surface, outside internal/.
package api

import (
	"fmt"

	"example.com/internal/store"
)

// Query re-exports store.Query: its exported methods are public API.
type Query = store.Query

// Describe is non-test code using the store.
func Describe() string {
	var l store.Label = "x"
	return fmt.Sprint(store.Used(), store.Total([]store.Square{{Side: 1}}), l)
}

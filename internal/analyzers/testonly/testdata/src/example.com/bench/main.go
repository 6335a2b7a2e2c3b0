// Command bench is a nested module that uses an internal identifier.
package main

import (
	"fmt"

	"example.com/internal/store"
)

func main() { fmt.Println(store.BenchOnly()) }

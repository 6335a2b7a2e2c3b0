package store

import (
	"testing"

	"example.com/internal/support"
)

func TestStore(t *testing.T) {
	if OnlyTested()+Recursive(2)+Kept()+support.Fake()+len(Orphan{}.Name()) == 0 {
		t.Fatal("zero")
	}
}

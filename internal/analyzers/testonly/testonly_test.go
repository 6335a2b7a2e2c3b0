package testonly_test

import (
	"testing"

	"github.com/hdr4me/hdr4me/internal/analyzers/analyzertest"
	"github.com/hdr4me/hdr4me/internal/analyzers/testonly"
)

func TestFixtures(t *testing.T) {
	analyzertest.RunProgram(t, testonly.Analyzer, "example.com")
}

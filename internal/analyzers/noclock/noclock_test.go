package noclock_test

import (
	"testing"

	"github.com/streamgeom/streamhull/internal/analysis/analysistest"
	"github.com/streamgeom/streamhull/internal/analyzers/noclock"
)

func TestNoClock(t *testing.T) {
	analysistest.Run(t, "testdata", noclock.Analyzer,
		"internal/core", "internal/wal", "internal/store", "clean")
}

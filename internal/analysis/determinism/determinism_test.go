package determinism_test

import (
	"testing"

	"sizeless/internal/analysis/analysistest"
	"sizeless/internal/analysis/determinism"
)

func TestAnalyzer(t *testing.T) {
	// c/internal/nn: numeric-scoped violations plus a suppressed exception.
	// c/internal/nn/fastpath: shared-float accumulation in pool worker
	// closures flagged in untagged files, silent behind the fma tag.
	// c/internal/util: outside the numeric scope, asserted silent.
	// c/internal/loadgen: the scenario engine's scope — seedless draws and
	// map-order schedule assembly flagged.
	// c/internal/dag: the application planner's scope — per-seed plan
	// reproducibility forbids seedless jitter and map-order cost assembly.
	// c/internal/lambda: the warm-pool simulator's scope — a map-order
	// float total flagged, a spawn-order total silent.
	analysistest.Run(t, analysistest.TestData(t), determinism.Analyzer,
		"c/internal/nn", "c/internal/nn/fastpath", "c/internal/util", "c/internal/loadgen",
		"c/internal/dag", "c/internal/lambda")
}

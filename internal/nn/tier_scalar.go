//go:build !fma

package nn

// Tier 1 of the determinism policy: the bit-reproducible default build.
// Every kernel resolves to the scalar implementations in engine.go, whose
// summation orders have been frozen since PR 4 — the 1e-6 parity oracle
// against the retired per-sample loop, byte-identical serialization, and
// the staged≡continuous training equivalence all assume them. Hooks here
// are compile-time constants, so the default tier pays nothing for the
// existence of the fast tier: trainBatchTier inlines to `false` and the
// branch is dead-code-eliminated.
//
// Tier 2 (tier_fma.go, `-tags fma`) replaces these hooks with FMA
// micro-kernels and batch-striped parallel training under a tolerance
// parity oracle. See the package documentation's "Determinism policy"
// section for the contract.

// FastTier reports whether this binary was built with the opt-in fast
// training tier (`go build -tags fma`). The default tier is
// bit-reproducible; the fast tier trades bit-equality for throughput under
// a tolerance oracle.
func FastTier() bool { return false }

// SetFastWorkers is a no-op in the default tier; in `-tags fma` builds it
// pins the fast tier's worker count (0 restores the automatic
// min(GOMAXPROCS, NumCPU) policy).
func SetFastWorkers(int) {}

// setFastEnabled is the benchmark/test hook that pins the scalar path in
// fast-tier builds so both tiers can be measured in one process. No-op
// here: the scalar path is the only path.
func setFastEnabled(bool) {}

// trainBatchTier is the fast tier's entry point into trainBatch; the
// scalar tier has no alternate path.
func (n *Network) trainBatchTier([][]float64, []int, *TrainScratch) (float64, bool) {
	return 0, false
}

// forwardLayers pushes a gathered input matrix through every layer with
// the scalar blocked GEMM — the ForwardBatch kernel of the default tier.
func (n *Network) forwardLayers(xb []float64, acts [][]float64, nb int) {
	in := xb
	for li, l := range n.layers {
		gemmNT(acts[li][:nb*l.out], in, l.w, l.b, nb, l.out, l.in, l.relu)
		in = acts[li][:nb*l.out]
	}
}

//go:build fma && !amd64.v3 && !arm64

package nn

// Fallback kernels for `-tags fma` builds on targets without guaranteed
// FMA instructions (amd64 below GOAMD64=v3, and other GOARCHes). math.FMA
// would go through a per-call feature test (amd64) or a softfloat routine
// there, which is slower than the scalar kernels it replaces — so the fast
// tier keeps its parallel batch striping but aliases every micro-kernel to
// the scalar implementation. Train results in this configuration match
// other fast-tier platforms only within the parity tolerance (the fused
// and unfused kernels round differently); build with GOAMD64=v3 for the
// real kernels and cross-platform fast-tier reproducibility.

// fusedKernels reports whether this build really fuses multiply-adds;
// benchmarks and the speedup floor test skip when these aliases are in
// effect.
const fusedKernels = false

func fastGemmNT(dst, x, w, bias []float64, n, m, k int, relu bool) {
	gemmNT(dst, x, w, bias, n, m, k, relu)
}

func fastGemmNN(dst, delta, w []float64, n, m, k int) {
	gemmNN(dst, delta, w, n, m, k)
}

func fastAccumGrad(gradW, gradB, delta, x []float64, n, m, k int, _ []int, _ []float64) {
	accumGrad(gradW, gradB, delta, x, n, m, k)
}

func (n *Network) fastApplyGradients(ts *TrainScratch, invBs float64) {
	n.applyGradients(ts, invBs)
}

//go:build fma

package nn

import (
	"context"
	"runtime"
	"sync/atomic"

	"sizeless/internal/pool"
)

// Tier 2 of the determinism policy: the opt-in fast tier (`-tags fma`).
// Training and batched inference dispatch to math.FMA micro-kernels
// (kernels_fused.go; they need GOAMD64=v3 on amd64 — see that file) and
// the mini-batch step is striped across a bounded worker set: each worker
// owns a contiguous range of batch rows end to end (forward, loss,
// backward) with a private gradient slab, and the slabs are reduced in a
// fixed tree order after the join. Forward and backward work is
// row-independent, so the ONLY place parallelism can reorder float
// additions is that reduction — which is why a fixed worker count makes
// fast-mode training run-to-run deterministic at any GOMAXPROCS, while
// changing the worker count (or comparing against the scalar tier) moves
// results only within the tolerance parity oracle in fma_parity_test.go.
//
// The default worker policy is min(GOMAXPROCS, NumCPU), clamped to the
// batch size: stripes beyond the hardware's true parallelism (or the
// batch's rows) are pure scheduling overhead.

// fastOff pins the scalar path when set — the benchmark/test hook that
// lets one process measure both tiers (BenchmarkTrainEpoch stays the
// scalar baseline in fma builds).
var fastOff atomic.Bool

// fastWorkersCfg is the pinned worker count; 0 selects the automatic
// policy.
var fastWorkersCfg atomic.Int64

// FastTier reports whether this binary was built with the opt-in fast
// training tier (`go build -tags fma`).
func FastTier() bool { return true }

// SetFastWorkers pins the fast tier's worker count; 0 restores the
// automatic min(GOMAXPROCS, NumCPU) policy. The worker count participates
// in the numeric result (it decides the gradient-reduction grouping), so
// pin it when run-to-run bit-reproducibility matters across machines; any
// fixed value is reproducible on its own.
func SetFastWorkers(w int) {
	if w < 0 {
		w = 0
	}
	fastWorkersCfg.Store(int64(w))
}

func setFastEnabled(on bool) { fastOff.Store(!on) }

func fastEnabled() bool { return !fastOff.Load() }

// fastWorkerCount resolves the worker policy for an n-row batch: the
// pinned count if set, else min(GOMAXPROCS, NumCPU) — GOMAXPROCS alone
// overshoots on containers whose scheduler quota exceeds their usable
// CPUs — always clamped to n so short batches never spawn idle stripes.
func fastWorkerCount(n int) int {
	w := int(fastWorkersCfg.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if c := runtime.NumCPU(); c < w {
			w = c
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ensureFast sizes the per-worker gradient slabs (workers 1..W-1; worker 0
// accumulates into ts.gradW directly) and the loss partials.
func (ts *TrainScratch) ensureFast(n *Network, workers int) {
	extra := workers - 1
	ts.ptotal = growFloats(ts.ptotal, workers)
	if cap(ts.pgradW) < extra {
		nextW := make([][][]float64, extra)
		copy(nextW, ts.pgradW)
		ts.pgradW = nextW
		nextB := make([][][]float64, extra)
		copy(nextB, ts.pgradB)
		ts.pgradB = nextB
	} else {
		ts.pgradW = ts.pgradW[:extra]
		ts.pgradB = ts.pgradB[:extra]
	}
	for e := 0; e < extra; e++ {
		ts.pgradW[e] = growMatrix(ts.pgradW[e], len(n.layers))
		ts.pgradB[e] = growMatrix(ts.pgradB[e], len(n.layers))
		for li, l := range n.layers {
			ts.pgradW[e][li] = growFloats(ts.pgradW[e][li], len(l.w))
			ts.pgradB[e][li] = growFloats(ts.pgradB[e][li], l.out)
		}
	}
	// Backward compaction scratch, one pair per worker (worker 0 included);
	// the inner buffers grow lazily in fastStripe to each layer's rows·out.
	if cap(ts.pnzIdx) < workers {
		nextI := make([][]int, workers)
		copy(nextI, ts.pnzIdx)
		ts.pnzIdx = nextI
		nextC := make([][]float64, workers)
		copy(nextC, ts.pnzCf)
		ts.pnzCf = nextC
	} else {
		ts.pnzIdx = ts.pnzIdx[:workers]
		ts.pnzCf = ts.pnzCf[:workers]
	}
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// gradSlab returns worker w's gradient accumulators for layer li.
func (ts *TrainScratch) gradSlab(w, li int, l *dense) (gw, gb []float64) {
	if w == 0 {
		return ts.gradW[li][:len(l.w)], ts.gradB[li][:l.out]
	}
	return ts.pgradW[w-1][li][:len(l.w)], ts.pgradB[w-1][li][:l.out]
}

// trainBatchTier takes the whole mini-batch step on the fast tier: striped
// forward/loss/backward into per-worker slabs, fixed-order tree reduction,
// one FMA optimizer step. Returns false when the scalar path is pinned
// (setFastEnabled(false)), handing the step back to trainBatch's scalar
// body. The input matrix ts.xb is already gathered by trainBatch.
func (n *Network) trainBatchTier(y [][]float64, batch []int, ts *TrainScratch) (float64, bool) {
	if !fastEnabled() {
		return 0, false
	}
	nb := len(batch)
	w := fastWorkerCount(nb)
	ts.ensureFast(n, w)
	if w == 1 {
		ts.ptotal[0] = n.fastStripe(y, batch, ts, 0, 0, nb)
	} else {
		// The stripe decomposition is pool.Stripes' pure function of
		// (nb, w); each worker touches only its own rows of the shared
		// activation/delta matrices plus its private slab, so the join
		// leaves identical state for any scheduling order.
		_ = pool.Stripes(context.Background(), nb, w, func(sw, start, end int) error {
			ts.ptotal[sw] = n.fastStripe(y, batch, ts, sw, start, end)
			return nil
		})
	}
	// Deterministic tree reduction: slab s folds into slab s-gap with gap
	// doubling each round — the grouping depends only on w, never on
	// scheduling. Only trainable layers are reduced (frozen slabs hold
	// stale data by design).
	for gap := 1; gap < w; gap *= 2 {
		for lo := 0; lo+gap < w; lo += 2 * gap {
			for li := n.frozen; li < len(n.layers); li++ {
				l := n.layers[li]
				dgw, dgb := ts.gradSlab(lo, li, l)
				sgw, sgb := ts.gradSlab(lo+gap, li, l)
				addVec(dgw, sgw)
				addVec(dgb, sgb)
			}
		}
	}
	var total float64
	for _, t := range ts.ptotal[:w] {
		total += t
	}
	n.step++
	n.fastApplyGradients(ts, 1/float64(nb))
	return total, true
}

// fastStripe runs rows [start, end) of the current batch end to end —
// forward, loss gradient, backward — accumulating gradients into worker
// w's slab. Rows of the shared activation and delta matrices are disjoint
// across stripes, so no synchronization is needed until the join.
func (n *Network) fastStripe(y [][]float64, batch []int, ts *TrainScratch, w, start, end int) float64 {
	ins := n.cfg.Inputs
	rows := end - start
	big := len(n.layers)
	xb := ts.xb[start*ins : end*ins]

	in := xb
	for li, l := range n.layers {
		dst := ts.acts[li][start*l.out : end*l.out]
		fastGemmNT(dst, in, l.w, l.b, rows, l.out, l.in, l.relu)
		in = dst
	}

	outW := n.layers[big-1].out
	top := ts.delta[big-1]
	var total float64
	for s := start; s < end; s++ {
		total += n.lossAndGradInto(ts.acts[big-1][s*outW:(s+1)*outW], y[batch[s]], top[s*outW:(s+1)*outW])
	}

	for li := big - 1; li >= n.frozen; li-- {
		l := n.layers[li]
		delta := ts.delta[li][start*l.out : end*l.out]
		input := xb
		if li > 0 {
			input = ts.acts[li-1][start*l.in : end*l.in]
		}
		gw, gb := ts.gradSlab(w, li, l)
		ts.pnzIdx[w] = growInts(ts.pnzIdx[w], rows*l.out+1)
		ts.pnzCf[w] = growFloats(ts.pnzCf[w], rows*l.out+1)
		fastAccumGrad(gw, gb, delta, input, rows, l.out, l.in, ts.pnzIdx[w], ts.pnzCf[w])
		if li > n.frozen {
			prev := ts.delta[li-1][start*l.in : end*l.in]
			fastGemmNN(prev, delta, l.w, rows, l.out, l.in)
			a := ts.acts[li-1][start*l.in : end*l.in]
			for i, av := range a {
				var keep float64
				if av > 0 {
					keep = 1
				}
				prev[i] *= keep
			}
		}
	}
	return total
}

// forwardLayers pushes a gathered input matrix through every layer — the
// ForwardBatch kernel. Large batches are striped across workers; forward
// writes are row-disjoint with no cross-row reduction, so the result is
// identical for every worker count (unlike training, where the worker
// count picks the gradient-reduction grouping).
func (n *Network) forwardLayers(xb []float64, acts [][]float64, nb int) {
	if !fastEnabled() {
		in := xb
		for li, l := range n.layers {
			gemmNT(acts[li][:nb*l.out], in, l.w, l.b, nb, l.out, l.in, l.relu)
			in = acts[li][:nb*l.out]
		}
		return
	}
	// At least 8 rows per stripe: below that the spawn cost beats the win.
	w := fastWorkerCount(nb / 8)
	if w <= 1 {
		n.fastForwardRange(xb, acts, 0, nb)
		return
	}
	_ = pool.Stripes(context.Background(), nb, w, func(_, start, end int) error {
		n.fastForwardRange(xb, acts, start, end)
		return nil
	})
}

// fastForwardRange runs the FMA forward pass for rows [start, end).
func (n *Network) fastForwardRange(xb []float64, acts [][]float64, start, end int) {
	ins := n.cfg.Inputs
	in := xb[start*ins : end*ins]
	for li, l := range n.layers {
		dst := acts[li][start*l.out : end*l.out]
		fastGemmNT(dst, in, l.w, l.b, end-start, l.out, l.in, l.relu)
		in = dst
	}
}

// addVec computes dst += src element-wise — the slab-reduction kernel.
// Plain adds: the reduction is memory-bound and FMA buys nothing here.
func addVec(dst, src []float64) {
	src = src[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

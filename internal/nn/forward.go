package nn

import (
	"fmt"
	"sync"
)

// ForwardScratch holds the buffers one batched forward pass needs: the
// gathered input matrix and per-layer activation matrices. Like
// TrainScratch, buffers grow on demand and are retained across calls,
// networks, and shapes, so steady-state batch inference allocates nothing.
// A ForwardScratch must not be shared across goroutines; the zero value is
// ready to use.
type ForwardScratch struct {
	xb   []float64   // gathered input batch, batch×inputs
	acts [][]float64 // per-layer activations, batch×out
}

// NewForwardScratch returns an empty scratch; buffers grow on first use.
func NewForwardScratch() *ForwardScratch { return &ForwardScratch{} }

// ensure sizes every buffer for one batch of the network's shape.
func (fs *ForwardScratch) ensure(n *Network, batch int) {
	fs.xb = growFloats(fs.xb, batch*n.cfg.Inputs)
	fs.acts = growMatrix(fs.acts, len(n.layers))
	for li, l := range n.layers {
		fs.acts[li] = growFloats(fs.acts[li], batch*l.out)
	}
}

// forwardScratchPool recycles batch-inference scratch across ForwardBatch
// calls with nil scratch — the fleet recompute path borrows per chunk, so
// concurrent recommenders never contend on buffers.
var forwardScratchPool = sync.Pool{New: func() any { return &ForwardScratch{} }}

// ForwardBatch runs forward passes for a batch of samples through the
// engine's blocked GEMM kernels, writing sample i's outputs into dst[i]
// (which must be len Outputs). fs may be nil to borrow pooled scratch.
//
// This is the network's only inference path: Predict is a one-row call,
// validation scoring and EvalLoss score through it, and
// core.Model.PredictBatch and the recommender's drain/recompute calls fan
// chunks into it, so a whole chunk moves through each layer as one blocked
// matrix multiply. In the default tier the kernel is the bit-reproducible
// scalar gemmNT; `-tags fma` builds dispatch to the FMA micro-kernels,
// striped across workers for large batches (row-disjoint writes, so
// results are identical for any worker count). In both tiers every output
// is one in-order accumulation whatever its row's position, so a sample's
// outputs are bit-identical alone, in any batch, and in any chunking.
func (n *Network) ForwardBatch(xs [][]float64, dst [][]float64, fs *ForwardScratch) error {
	if len(dst) != len(xs) {
		return fmt.Errorf("nn: ForwardBatch dst has %d rows, want %d", len(dst), len(xs))
	}
	if len(xs) == 0 {
		return nil
	}
	if err := n.checkInputs(xs); err != nil {
		return err
	}
	outs := n.cfg.Outputs
	for i := range dst {
		if len(dst[i]) != outs {
			return fmt.Errorf("nn: ForwardBatch dst row %d has %d slots, network outputs %d", i, len(dst[i]), outs)
		}
	}
	if fs == nil {
		fs = forwardScratchPool.Get().(*ForwardScratch)
		defer forwardScratchPool.Put(fs)
	}
	top := n.forward(xs, fs)
	for i := range dst {
		copy(dst[i], top[i*outs:(i+1)*outs])
	}
	return nil
}

// checkInputs rejects any sample whose width is not the network's input
// dimension.
func (n *Network) checkInputs(xs [][]float64) error {
	for i, x := range xs {
		if len(x) != n.cfg.Inputs {
			return fmt.Errorf("nn: input %d has %d features, network expects %d", i, len(x), n.cfg.Inputs)
		}
	}
	return nil
}

// forward gathers the already-validated, non-empty batch xs into fs and
// pushes it through every layer, returning the top-layer activations
// (len(xs)×Outputs, row-major), valid until fs is next used.
func (n *Network) forward(xs [][]float64, fs *ForwardScratch) []float64 {
	nb := len(xs)
	ins := n.cfg.Inputs
	fs.ensure(n, nb)
	xb := fs.xb[:nb*ins]
	for i, x := range xs {
		copy(xb[i*ins:(i+1)*ins], x)
	}
	n.forwardLayers(xb, fs.acts, nb)
	return fs.acts[len(n.layers)-1][:nb*n.cfg.Outputs]
}

// evalLoss computes the mean loss over (x, y) — the per-sample losses
// summed in row order — from one forward pass over the whole set. It backs
// both EvalLoss and the per-epoch validation pass, so the two agree
// bit-for-bit on the same weights.
func (n *Network) evalLoss(x, y [][]float64, fs *ForwardScratch) float64 {
	outs := n.cfg.Outputs
	top := n.forward(x, fs)
	var total float64
	for i := range x {
		total += n.lossValue(top[i*outs:(i+1)*outs], y[i])
	}
	return total / float64(len(x))
}

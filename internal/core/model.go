package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"sizeless/internal/dataset"
	"sizeless/internal/features"
	"sizeless/internal/monitoring"
	"sizeless/internal/nn"
	"sizeless/internal/platform"
	"sizeless/internal/pool"
	"sizeless/internal/xrand"
)

// ModelConfig describes one trainable model: which base size it monitors,
// which sizes it predicts, its feature set, and the network hyperparameters
// (Table 2).
type ModelConfig struct {
	// Base is the monitored memory size (the paper recommends 256 MB).
	Base platform.MemorySize
	// Sizes is the full memory grid; targets are Sizes minus Base.
	Sizes []platform.MemorySize
	// Features is the input feature set (defaults to the paper-final F4).
	Features []features.Feature
	// Network hyperparameters (paper final: 4×256, Adam, MAPE, 200
	// epochs, L2 = 0.01).
	Hidden       []int
	Optimizer    nn.Optimizer
	Loss         nn.Loss
	Epochs       int
	L2           float64
	LearningRate float64
	BatchSize    int
	Seed         int64
	// EnsembleSize trains this many networks from different seeds and
	// averages their predictions. The paper trains a single network on
	// 2000 functions; at smaller dataset sizes a small ensemble removes
	// the prediction jitter of individual networks. Default: 3.
	EnsembleSize int
	// Workers bounds how many ensemble members (and, in CrossValidate,
	// folds) train concurrently: 0 = GOMAXPROCS, 1 = sequential. It is a
	// scheduling knob, not a hyperparameter — results are identical for
	// any value because every member derives its own seed.
	Workers int
	// ValidationFraction holds this fraction of rows out of training as a
	// per-epoch validation split: every ensemble member returns its
	// best-validation weights instead of the last epoch's. Zero disables
	// the split unless Patience is set (then it defaults to 0.2).
	ValidationFraction float64
	// Patience stops each member's training after this many consecutive
	// epochs without validation improvement (0 = train the full budget).
	Patience int
}

// DefaultModelConfig returns the paper's final configuration for the given
// base size.
func DefaultModelConfig(base platform.MemorySize) ModelConfig {
	return ModelConfig{
		Base:      base,
		Sizes:     platform.StandardSizes(),
		Features:  features.PaperFinalFeatures(),
		Hidden:    []int{256, 256, 256, 256},
		Optimizer: nn.Adam,
		Loss:      nn.MAPE,
		Epochs:    200,
		L2:        0.01,
		Seed:      1,
	}
}

func (c ModelConfig) withDefaults() ModelConfig {
	if c.Sizes == nil {
		c.Sizes = platform.StandardSizes()
	}
	if c.Features == nil {
		c.Features = features.PaperFinalFeatures()
	}
	if c.Hidden == nil {
		c.Hidden = []int{256, 256, 256, 256}
	}
	if c.Optimizer == "" {
		c.Optimizer = nn.Adam
	}
	if c.Loss == "" {
		c.Loss = nn.MAPE
	}
	if c.Epochs <= 0 {
		c.Epochs = 200
	}
	if c.EnsembleSize <= 0 {
		c.EnsembleSize = 3
	}
	if c.Patience > 0 && c.ValidationFraction <= 0 {
		c.ValidationFraction = 0.2
	}
	return c
}

// validationSplit partitions already-scaled rows into train/validation
// subsets by a deterministic permutation derived from the seed. The split
// is shared by every ensemble member so their validation scores are
// comparable. Returns the inputs unchanged (no validation) when the
// fraction is unset or the dataset is too small to hold a row out.
func validationSplit(x, y [][]float64, frac float64, seed int64) (trX, trY, vaX, vaY [][]float64) {
	n := len(x)
	if frac <= 0 || n < 2 {
		return x, y, nil, nil
	}
	nVal := int(math.Round(frac * float64(n)))
	if nVal < 1 {
		nVal = 1
	}
	if nVal > n-1 {
		nVal = n - 1
	}
	perm := xrand.New(seed).Derive("val-split").Perm(n)
	trX = make([][]float64, 0, n-nVal)
	trY = make([][]float64, 0, n-nVal)
	vaX = make([][]float64, 0, nVal)
	vaY = make([][]float64, 0, nVal)
	for i, idx := range perm {
		if i < nVal {
			vaX = append(vaX, x[idx])
			vaY = append(vaY, y[idx])
		} else {
			trX = append(trX, x[idx])
			trY = append(trY, y[idx])
		}
	}
	return trX, trY, vaX, vaY
}

// Model is a trained execution-time predictor for one base size. It holds
// an ensemble of identically configured networks trained from different
// seeds; predictions are the ensemble mean.
type Model struct {
	cfg     ModelConfig
	targets []platform.MemorySize
	scaler  *nn.Scaler
	nets    []*nn.Network
	prov    Provenance
	// extractor is the pooled feature-extraction path shared by every
	// prediction entry point; its sync.Pool recycles feature matrices
	// across batch calls, so concurrent callers never contend on buffers.
	extractor *features.Extractor
	// sortedSizes is the grid in ascending order, precomputed so the
	// per-prediction isotonic projection stops sorting on every call.
	sortedSizes []platform.MemorySize
	// batchPool recycles the buffers of every predict path (ForwardBatch
	// scratch plus per-sample output and ratio rows): a single prediction
	// is a one-row batch, and the recommender's recompute path makes one
	// per drifted function under concurrent ingestion.
	batchPool sync.Pool // stores *batchBuf
	// fpOnce guards the memoized Fingerprint result.
	fpOnce sync.Once
	fp     string
	fpErr  error
}

// initDerived populates the computed fields shared by every construction
// path (Train, LoadModel, and FineTune's clone-via-LoadModel).
func (m *Model) initDerived() error {
	extractor, err := features.NewExtractor(m.cfg.Features)
	if err != nil {
		return err
	}
	m.extractor = extractor
	m.sortedSizes = append([]platform.MemorySize(nil), m.cfg.Sizes...)
	sort.Slice(m.sortedSizes, func(i, j int) bool { return m.sortedSizes[i] < m.sortedSizes[j] })
	return nil
}

// batchBuf is one reusable set of prediction buffers: batched forward-pass
// scratch plus per-sample rows for one ensemble member's outputs and the
// accumulated ensemble-mean ratios.
type batchBuf struct {
	fs     *nn.ForwardScratch
	preds  [][]float64 // chunk × outputs, one member's ForwardBatch results
	ratios [][]float64 // chunk × outputs, summed then clamped mean
}

// getBatchBuf borrows prediction scratch sized for `rows` samples. It is
// the pool's provider: every caller pairs it with a deferred
// batchPool.Put in the same function, so the value never outlives its
// return to the pool.
func (m *Model) getBatchBuf(rows int) *batchBuf {
	bb, ok := m.batchPool.Get().(*batchBuf)
	if !ok {
		bb = &batchBuf{fs: nn.NewForwardScratch()}
	}
	outs := len(m.targets)
	for len(bb.preds) < rows {
		bb.preds = append(bb.preds, make([]float64, outs))
		bb.ratios = append(bb.ratios, make([]float64, outs))
	}
	//lint:ignore poolescape provider half of the batch-predict pool: every caller pairs this with `defer m.batchPool.Put(bb)` in the same function
	return bb
}

// ratiosFromScaledBatch runs the ensemble over a chunk of already-scaled
// feature rows through ForwardBatch — each member moves the whole chunk
// through its layers as blocked matrix multiplies — and leaves the clamped
// mean ratios in bb.ratios[i] for row i. ForwardBatch scores a row the same
// in any batch and the per-row accumulation (members in ensemble order,
// then mean, then clamp) never mixes rows, so a row's ratios are
// bit-identical whether it is predicted alone or in any chunk.
func (m *Model) ratiosFromScaledBatch(scaled [][]float64, bb *batchBuf) error {
	nb := len(scaled)
	preds := bb.preds[:nb]
	ratios := bb.ratios[:nb]
	for _, row := range ratios {
		for i := range row {
			row[i] = 0
		}
	}
	for _, net := range m.nets {
		if err := net.ForwardBatch(scaled, preds, bb.fs); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		for s, p := range preds {
			row := ratios[s]
			for i, v := range p {
				row[i] += v
			}
		}
	}
	n := float64(len(m.nets))
	const minRatio, maxRatio = 0.02, 50.0
	for _, row := range ratios {
		for i := range row {
			r := row[i] / n
			if r < minRatio {
				r = minRatio
			}
			if r > maxRatio {
				r = maxRatio
			}
			row[i] = r
		}
	}
	return nil
}

// Train fits a model on the dataset. Cancelling ctx aborts training at
// the next epoch boundary of each ensemble member.
func Train(ctx context.Context, ds *dataset.Dataset, cfg ModelConfig) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(ds.Rows) == 0 {
		return nil, errors.New("core: empty training dataset")
	}
	x, err := features.Matrix(ds, cfg.Base, cfg.Features)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	targets := features.TargetSizes(cfg.Sizes, cfg.Base)
	if len(targets) == 0 {
		return nil, errors.New("core: no target sizes")
	}
	y, err := features.Targets(ds, cfg.Base, targets)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	if cfg.ValidationFraction < 0 || cfg.ValidationFraction >= 1 {
		return nil, fmt.Errorf("core: validation fraction %v outside [0, 1)", cfg.ValidationFraction)
	}

	// Early stopping: every member trains against the same held-out split
	// (derived from the model seed, so the split — like everything else —
	// is reproducible) and keeps its best-validation weights. The split is
	// taken on the raw rows and the scaler fitted on the training rows
	// only, so validation scores never leak through the standardization
	// statistics (and match how GridSearchHalving fits its scaler).
	trXraw, trY, vaXraw, vaY := validationSplit(x, y, cfg.ValidationFraction, cfg.Seed)
	scaler, err := nn.FitScaler(trXraw)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	trX, err := scaler.TransformBatch(trXraw)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var vaX [][]float64
	if vaXraw != nil {
		if vaX, err = scaler.TransformBatch(vaXraw); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	// Ensemble members are independent; train them through the shared
	// bounded worker pool. Each member derives its own seed, so the result
	// does not depend on scheduling or worker count.
	nets := make([]*nn.Network, cfg.EnsembleSize)
	err = pool.Run(ctx, cfg.EnsembleSize, cfg.Workers, func(e int) error {
		net, err := nn.New(nn.Config{
			Inputs:       len(cfg.Features),
			Outputs:      len(targets),
			Hidden:       cfg.Hidden,
			Optimizer:    cfg.Optimizer,
			Loss:         cfg.Loss,
			L2:           cfg.L2,
			Epochs:       cfg.Epochs,
			LearningRate: cfg.LearningRate,
			BatchSize:    cfg.BatchSize,
			Seed:         cfg.Seed + int64(e)*9973,
		})
		if err != nil {
			return err
		}
		if vaX != nil {
			_, err = net.TrainWithValidation(ctx, trX, trY, net.Config().Epochs,
				nn.Validation{X: vaX, Y: vaY, Patience: cfg.Patience}, nil)
		} else {
			_, err = net.Train(ctx, trX, trY)
		}
		if err != nil {
			return err
		}
		nets[e] = net
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := &Model{cfg: cfg, targets: targets, scaler: scaler, nets: nets}
	if err := m.initDerived(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return m, nil
}

// Config returns the model's configuration.
func (m *Model) Config() ModelConfig { return m.cfg }

// Provenance reports how the model came to be. The zero value means the
// model was trained from scratch; FineTune stamps the adaptation settings.
func (m *Model) Provenance() Provenance { return m.prov }

// Targets returns the predicted memory sizes (grid minus base).
func (m *Model) Targets() []platform.MemorySize {
	return append([]platform.MemorySize(nil), m.targets...)
}

// PredictRatios predicts the execution-time ratios (target/base) from a
// base-size monitoring summary. Predictions are floored at a small positive
// value: a ratio of zero or below is physically impossible.
func (m *Model) PredictRatios(s monitoring.Summary) ([]float64, error) {
	rows, release := m.extractor.Borrow(1)
	defer release()
	features.ExtractInto(rows[0], m.cfg.Features, s)
	return m.predictVector(rows[0])
}

// predictVector scales a raw feature vector in place, runs it through the
// ensemble as a one-row batch, and returns the ratios in a fresh slice,
// clamped to a physically plausible band: no memory change yields a >50×
// slowdown or speedup on this platform (the CPU share spans only ~28×
// between 128 MB and 3008 MB). Read-only over the model: safe for
// concurrent use.
func (m *Model) predictVector(vec []float64) ([]float64, error) {
	row := [][]float64{vec}
	if err := m.scaler.TransformInPlace(row); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bb := m.getBatchBuf(1)
	defer m.batchPool.Put(bb)
	if err := m.ratiosFromScaledBatch(row, bb); err != nil {
		return nil, err
	}
	return append([]float64(nil), bb.ratios[0]...), nil
}

// Predict returns the execution time in milliseconds for every size in the
// grid. The base size reports the monitored value itself; target sizes use
// the predicted ratios. Predictions are projected onto the physically valid
// region: on a platform whose every resource scales monotonically with
// memory, execution time cannot increase with memory, so any inversion in
// the raw network output is flattened (isotonic projection in size order,
// anchored at the monitored base value).
//
// Predict runs PredictBatch's forward pass on a one-row batch, so a summary
// gets bit-identical times alone or in any batch. It runs on pooled
// extraction and forward-pass buffers, so it is cheap enough for a
// continuous recommender to call once per drifted function, and safe to
// call from many goroutines at once.
func (m *Model) Predict(s monitoring.Summary) (map[platform.MemorySize]float64, error) {
	baseMs := s.Mean[monitoring.ExecutionTime]
	if baseMs <= 0 {
		return nil, errors.New("core: summary has non-positive execution time")
	}
	rows, release := m.extractor.Borrow(1)
	defer release()
	features.ExtractInto(rows[0], m.cfg.Features, s)
	ratios, err := m.predictVector(rows[0])
	if err != nil {
		return nil, err
	}
	return m.timesFromRatios(baseMs, ratios), nil
}

// timesFromRatios assembles the per-size execution-time map from the base
// measurement and the predicted ratios, applying the isotonic projection.
func (m *Model) timesFromRatios(baseMs float64, ratios []float64) map[platform.MemorySize]float64 {
	out := make(map[platform.MemorySize]float64, len(m.targets)+1)
	out[m.cfg.Base] = baseMs
	for i, mem := range m.targets {
		out[mem] = ratios[i] * baseMs
	}
	enforceMonotone(out, m.sortedSizes)
	return out
}

// PredictBatch predicts execution times for many summaries in one pass —
// the fleet-scale hot path of a provider-side recommender. Feature
// extraction and scaling are amortized into single matrix operations, each
// chunk of summaries moves through every ensemble member as one blocked
// GEMM (nn.ForwardBatch — the fused kernels in `-tags fma` builds), and
// chunks run concurrently on up to `workers` goroutines (0 = GOMAXPROCS),
// clamped to the chunk count so small batches never spawn idle workers.
// Results are positionally aligned with sums and deterministic, and each is
// bit-identical to Predict on the same summary for any batch size, chunking
// or worker count; cancelling ctx abandons unstarted chunks.
func (m *Model) PredictBatch(ctx context.Context, sums []monitoring.Summary, workers int) ([]map[platform.MemorySize]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(sums) == 0 {
		return nil, nil
	}
	// Amortized feature extraction into a pooled matrix, scaled in place:
	// repeated batch calls recycle the same storage instead of allocating a
	// fresh matrix per call.
	scaled, release := m.extractor.Borrow(len(sums))
	defer release()
	baseMs := make([]float64, len(sums))
	for i, s := range sums {
		baseMs[i] = s.Mean[monitoring.ExecutionTime]
		if baseMs[i] <= 0 {
			return nil, fmt.Errorf("core: summary %d has non-positive execution time", i)
		}
		features.ExtractInto(scaled[i], m.cfg.Features, s)
	}
	if err := m.scaler.TransformInPlace(scaled); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Chunked fan-out over the shared bounded pool: each chunk borrows
	// batched forward-pass scratch and rides ForwardBatch, so a chunk
	// crosses each layer as one blocked matrix multiply. Jobs write only
	// their own indices, so results are deterministic for any worker
	// count.
	const chunk = 16
	out := make([]map[platform.MemorySize]float64, len(sums))
	nChunks := (len(sums) + chunk - 1) / chunk
	if workers > nChunks {
		// A single-function recompute must not spawn a fleet of idle pool
		// goroutines; there is never more work than chunks.
		workers = nChunks
	}
	err := pool.Run(ctx, nChunks, workers, func(c int) error {
		bb := m.getBatchBuf(chunk)
		defer m.batchPool.Put(bb)
		start := c * chunk
		end := start + chunk
		if end > len(sums) {
			end = len(sums)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := m.ratiosFromScaledBatch(scaled[start:end], bb); err != nil {
			return err
		}
		for i := start; i < end; i++ {
			out[i] = m.timesFromRatios(baseMs[i], bb.ratios[i-start])
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: batch predict: %w", err)
	}
	return out, nil
}

// enforceMonotone flattens inversions: traversing the already-ascending
// sizes, each prediction is capped by its predecessor's value. Callers pass
// a pre-sorted grid (Model.sortedSizes) so the per-prediction hot path does
// not sort.
func enforceMonotone(times map[platform.MemorySize]float64, ascending []platform.MemorySize) {
	prev := math.Inf(1)
	for _, m := range ascending {
		t, ok := times[m]
		if !ok {
			continue
		}
		if t > prev {
			times[m] = prev
		} else {
			prev = t
		}
	}
}

// Save persists the trained model (network weights, scaler, config
// metadata). The feature set is identified by name; loading resolves names
// against the paper-final feature constructors.
func (m *Model) Save(w io.Writer) error {
	return saveModel(m, w)
}

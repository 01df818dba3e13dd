package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"sizeless"
	"sizeless/internal/apps"
	"sizeless/internal/core"
	"sizeless/internal/dag"
	"sizeless/internal/dataset"
	"sizeless/internal/features"
	"sizeless/internal/harness"
	"sizeless/internal/lambda"
	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	rt "sizeless/internal/runtime"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

const (
	tradeoff     = 0.75 // the paper's recommended t
	campaignRate = 10   // req/s per campaign cell
	trainEpochs  = 20   // fixed budget, no early stopping
	planDuration = 3 * time.Second
)

// train fits the default 4×256 ensemble-3 model with a fixed epoch budget
// and no early stopping, as `sizeless train` does.
func train(ctx context.Context, ds *dataset.Dataset, seed int64) (*sizeless.Predictor, error) {
	return sizeless.TrainPredictor(ctx, ds, sizeless.WithEpochs(trainEpochs), sizeless.WithSeed(seed))
}

// coreModel reloads the predictor's model through its file format, giving
// the benchmark the core-layer handle the public API keeps private.
func coreModel(pred *sizeless.Predictor) (*core.Model, error) {
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		return nil, err
	}
	return core.LoadModel(&buf)
}

// modelShape is what the operation counts are computed from: the layer
// widths and ensemble size read from the predictor's saved model.
type modelShape struct {
	members int
	flops   float64 // one member's forward pass over one row: 2 × Σ fan-in × fan-out
}

// Training on a sample costs three forward passes' worth of operations
// (forward, input-gradient and weight-gradient products).
const trainFlopsFactor = 3

func shapeOf(pred *sizeless.Predictor) (modelShape, error) {
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		return modelShape{}, err
	}
	var f struct {
		Features []string `json:"features"`
		Networks []struct {
			Biases [][]float64 `json:"biases"`
		} `json:"networks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		return modelShape{}, err
	}
	if len(f.Networks) == 0 {
		return modelShape{}, fmt.Errorf("saved model has no networks")
	}
	in, macs := len(f.Features), 0
	for _, layer := range f.Networks[0].Biases {
		macs += in * len(layer)
		in = len(layer)
	}
	return modelShape{members: len(f.Networks), flops: 2 * float64(macs)}, nil
}

// setTraining reports the core and nn training metrics from the median
// training time of a model that processed samples member-samples.
func setTraining(r *run, sh modelShape, samples int, seconds float64) {
	r.set("core.train_s", seconds, "s")
	r.set("nn.train_gflops", trainFlopsFactor*sh.flops*float64(samples)/seconds/1e9, "GFLOP/s")
}

// quality scores a predictor on held-out rows: the mean absolute percentage
// error of its execution-time predictions at non-base sizes, and the share
// of rows whose recommended size equals the optimizer's choice over the
// measured times.
func quality(ctx context.Context, pred *sizeless.Predictor, rows []dataset.Row, sizes []platform.MemorySize) (mape, pick float64, err error) {
	base := pred.Base()
	pricing := pred.Provider().Platform().Pricing
	sums := make([]monitoring.Summary, len(rows))
	for i := range rows {
		sums[i] = rows[i].Summaries[base]
	}
	recs, err := pred.RecommendBatch(ctx, sums, tradeoff)
	if err != nil {
		return 0, 0, err
	}
	var errSum float64
	var n, hits int
	for i := range rows {
		times, err := pred.Predict(sums[i])
		if err != nil {
			return 0, 0, err
		}
		measured := make(map[platform.MemorySize]float64, len(sizes))
		for _, m := range sizes {
			actual, ok := rows[i].ExecTimeMs(m)
			if !ok {
				return 0, 0, fmt.Errorf("row %s lacks size %v", rows[i].FunctionID, m)
			}
			measured[m] = actual
			if m != base {
				errSum += math.Abs(times[m]-actual) / actual
				n++
			}
		}
		best, err := optimizer.Optimize(measured, pricing, tradeoff)
		if err != nil {
			return 0, 0, err
		}
		if best.Best == recs[i].Best {
			hits++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no held-out predictions to score")
	}
	return 100 * errSum / float64(n), 100 * float64(hits) / float64(len(rows)), nil
}

// replayCampaign runs a campaign cell by cell through harness.Measure under
// parent, replaying each cell's parts after it (see replayCell). A replayed
// run that disagrees with the measured one fails a check. It returns the
// number of cells and of cold starts.
func replayCampaign(r *run, tr *tracer, parent, req int, opts harness.Options, specs []*workload.Spec) (cells, colds int) {
	for _, spec := range specs {
		for _, m := range opts.Sizes {
			cell := tr.begin("harness.measure", parent, req)
			_, res, err := harness.Measure(opts, spec, m, 0)
			tr.end(cell)
			r.count(err)
			if err != nil {
				continue
			}
			again, err := replayCell(r, tr, cell, req, opts, spec, m)
			r.check(err != nil || again == res, "replayed %s at %v differs from the measured run", spec.Name, m)
			cells++
			colds += again.ColdStarts
		}
	}
	return cells, colds
}

// replayCell replays, as children of the cell's span, the parts of one
// harness measurement (repetition 0) with the same inputs: loadgen.Poisson,
// lambda.NewDeployment + Run, and the xrand.DeriveIndexed call the
// deployment makes for each instance it spawns.
func replayCell(r *run, tr *tracer, cell, req int, opts harness.Options, spec *workload.Spec, m platform.MemorySize) (lambda.Result, error) {
	root := xrand.New(opts.Seed)
	exp := fmt.Sprintf("%s@%v#rep%d", spec.Name, m, 0)
	var sched loadgen.Schedule
	err := tr.do("loadgen.schedule", cell, req, func() (err error) {
		sched, err = loadgen.Poisson(opts.Rate, opts.Duration, root.Derive("sched/"+exp))
		return err
	})
	r.count(err)
	if err != nil {
		return lambda.Result{}, err
	}
	var res lambda.Result
	run := tr.begin("lambda.run", cell, req)
	dep, err := lambda.NewDeployment(opts.Env, spec, m, monitoring.NewAccumulator(), root.Derive("dep/"+exp))
	if err == nil {
		res, err = dep.Run(sched)
	}
	tr.end(run)
	r.count(err)
	stream := root.Derive("dep/" + exp)
	tr.do("xrand.derive", run, req, func() error {
		for i := 0; i < res.ColdStarts; i++ {
			stream.DeriveIndexed("instance", i)
		}
		return nil
	})
	return res, err
}

// planApps is the `sizeless plan` path for every case-study app on every
// given provider: measure the app's functions across the grid, build the
// graph, compare the three plans, and check dag's no-regression rule. With
// replay set each measurement's parts are replayed after it. It returns the
// wall time of each plan.
func planApps(ctx context.Context, r *run, tr *tracer, parent, req int, providers []platform.Provider, seed int64, replay bool) []time.Duration {
	var lat []time.Duration
	for _, p := range providers {
		for _, app := range apps.All() {
			t0 := time.Now()
			id := tr.begin("bench.plan", parent, req)
			err := planApp(ctx, r, tr, id, req, p, app, seed, replay)
			tr.end(id)
			r.count(err)
			lat = append(lat, time.Since(t0))
		}
	}
	return lat
}

func planApp(ctx context.Context, r *run, tr *tracer, parent, req int, p platform.Provider, app apps.App, seed int64, replay bool) error {
	sizes := p.DefaultSizes()
	env := rt.NewEnvFor(p.Platform())
	env.Drift = app.Drift
	opts := harness.Options{Env: env, Rate: app.Rate, Duration: planDuration, Seed: seed}
	times := make(map[string]map[platform.MemorySize]float64, len(app.Functions))
	for _, spec := range app.Functions {
		per := make(map[platform.MemorySize]float64, len(sizes))
		for _, m := range sizes {
			cell := tr.begin("harness.measure", parent, req)
			sum, err := harness.MeasureRepeated(opts, spec, m)
			tr.end(cell)
			if err != nil {
				return fmt.Errorf("measuring %s at %v: %w", spec.Name, m, err)
			}
			if replay {
				replayCell(r, tr, cell, req, opts, spec, m)
			}
			per[m] = sum.Mean[monitoring.ExecutionTime]
		}
		times[spec.Name] = per
	}
	var g *dag.Graph
	if err := tr.do("dag.graph", parent, req, func() (err error) {
		g, err = app.Graph(times)
		return err
	}); err != nil {
		return err
	}
	var cmp *dag.Comparison
	if err := tr.do("dag.compare", parent, req, func() (err error) {
		cmp, err = dag.Compare(ctx, g, dag.Config{Platform: p.Platform(), Sizes: sizes, Tradeoff: tradeoff, Rate: app.Rate, Seed: seed})
		return err
	}); err != nil {
		return err
	}
	base := cmp.PerFunction
	for _, pl := range []*dag.Plan{cmp.SizesOnly, cmp.Fused} {
		r.check(pl.CostPerReq <= base.CostPerReq*(1+1e-12) && pl.LatencyMs <= base.LatencyMs*(1+1e-12),
			"%s on %s: plan (%.4g $/req, %.1f ms) regresses per-function (%.4g $/req, %.1f ms)",
			app.Name, p.Name(), pl.CostPerReq, pl.LatencyMs, base.CostPerReq, base.LatencyMs)
	}
	return nil
}

// replayInference times the inference layers one call at a time over
// summaries, each in its own span under parent: feature extraction,
// row-wise and batched prediction, and the optimizer. It returns how many
// rows Predict and PredictBatch disagree on bit for bit.
func replayInference(ctx context.Context, r *run, tr *tracer, parent, req int, pred *sizeless.Predictor, m *core.Model, sums []monitoring.Summary) int {
	feats := m.Config().Features
	dst := make([]float64, len(feats))
	pricing := pred.Provider().Platform().Pricing
	rows := make([]map[platform.MemorySize]float64, len(sums))
	for i, s := range sums {
		tr.do("features.extract", parent, req, func() error {
			features.ExtractInto(dst, feats, s)
			return nil
		})
		err := tr.do("core.predict", parent, req, func() (err error) {
			rows[i], err = pred.Predict(s)
			return err
		})
		r.count(err)
		if err != nil {
			return 0
		}
		err = tr.do("optimizer.optimize", parent, req, func() error {
			_, err := optimizer.Optimize(rows[i], pricing, tradeoff)
			return err
		})
		r.count(err)
	}
	var batch []map[platform.MemorySize]float64
	err := tr.do("core.predict_batch.heldout", parent, req, func() (err error) {
		batch, err = pred.PredictBatch(ctx, sums)
		return err
	})
	r.count(err)
	if err != nil {
		return 0
	}
	mismatch := 0
	for i := range rows {
		for size, v := range rows[i] {
			if math.Float64bits(batch[i][size]) != math.Float64bits(v) {
				mismatch++
				break
			}
		}
	}
	return mismatch
}

// spanStat is the median duration and the count of the spans named name.
func spanStat(spans []span, name string) (time.Duration, int) {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start))
		}
	}
	return time.Duration(median(ds)), len(ds)
}

// setLayerMetrics derives the per-layer metrics every workload shares from
// its spans; batchRows is the row count of each core.predict_batch span.
func setLayerMetrics(r *run, spans []span, sh modelShape, batchRows int) {
	med := func(name string) time.Duration {
		d, n := spanStat(spans, name)
		if n == 0 {
			r.check(false, "no %s spans recorded", name)
		}
		return d
	}
	r.set("recommender.ingest_us", us(med("recommender.ingest")), "us")
	r.set("recommender.fleet_ms", ms(med("recommender.fleet")), "ms")
	recommend := med("recommender.recommend")
	r.set("recommender.recommend_us_per_row", us(recommend)/float64(batchRows), "us")
	r.set("monitoring.summarize_us", us(med("monitoring.summarize")), "us")
	r.set("monitoring.drift_us", us(med("monitoring.drift")), "us")
	r.set("features.extract_us", us(med("features.extract")), "us")
	row := med("core.predict")
	r.set("core.predict_us", us(row), "us")
	batch := med("core.predict_batch")
	r.set("core.predict_batch_us_per_row", us(batch)/float64(batchRows), "us")
	flops := sh.flops * float64(sh.members)
	r.set("nn.forward_gflops_row", flops/row.Seconds()/1e9, "GFLOP/s")
	r.set("nn.forward_gflops_batch", flops*float64(batchRows)/batch.Seconds()/1e9, "GFLOP/s")
	r.set("optimizer.optimize_us", us(med("optimizer.optimize")), "us")
	r.set("serve.decode_ms", ms(med("serve.decode")), "ms")
	r.set("fngen.generate_ms", ms(med("fngen.generate")), "ms")
	measure := med("harness.measure")
	r.set("harness.measure_ms", ms(measure), "ms")
	r.set("loadgen.schedule_us", us(med("loadgen.schedule")), "us")
	run := med("lambda.run")
	r.set("lambda.run_ms", ms(run), "ms")
	r.set("dag.graph_ms", ms(med("dag.graph")), "ms")
	r.set("dag.compare_ms", ms(med("dag.compare")), "ms")
}

// setSeeding times xrand.DeriveIndexed directly, and reports the seeding
// share of lambda.run_ms from the replay spans: the xrand.derive replays
// re-run each deployment's per-instance derivations right after it ran.
func setSeeding(r *run, spans []span, coldStarts, cells int) {
	stream := xrand.New(r.seed).Derive("dep/probe")
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		stream.DeriveIndexed("instance", i)
	}
	r.set("xrand.derive_ns", float64(time.Since(t0).Nanoseconds())/n, "ns")
	r.set("lambda.cold_starts", float64(coldStarts)/float64(max(cells, 1)), "count")
	var derive, run time.Duration
	for _, s := range spans {
		switch s.Name {
		case "xrand.derive":
			derive += s.End - s.Start
		case "lambda.run":
			run += s.End - s.Start
		}
	}
	r.set("xrand.seed_share_pct", 100*float64(derive)/float64(max(run, 1)), "%")
}

// setShares reports each layer's share of the blocking path formed by the
// span trees rooted at the named roots, and prints the table.
func setShares(r *run, spans []span, roots ...string) {
	shares := layerShares(spans, roots...)
	r.printf("blocking-path self-time shares over %v:\n", roots)
	for _, l := range shareLayers {
		r.printf("  %-12s %6.2f%%\n", l, shares[l])
		r.set("share."+l+"_pct", shares[l], "%")
	}
}

var shareLayers = []string{"serve", "recommender", "monitoring", "features", "core", "optimizer",
	"fngen", "harness", "loadgen", "lambda", "xrand", "dag", "sizeless", "bench"}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

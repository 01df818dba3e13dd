package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"sizeless"
	"sizeless/internal/core"
	"sizeless/internal/dataset"
	"sizeless/internal/features"
	"sizeless/internal/fngen"
	"sizeless/internal/harness"
	"sizeless/internal/monitoring"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	rt "sizeless/internal/runtime"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

const (
	batchFunctions = 300 // functions per campaign
	batchDuration  = 5 * time.Second
	heldOut        = 0.25 // share of functions held out of training
	censusSeconds  = 2 * time.Second
)

func providers() []platform.Provider {
	return []platform.Provider{sizeless.AWSLambda(), sizeless.GCPCloudFunctions(), sizeless.AzureFunctions()}
}

// pass is one closed-loop pass of the batch-tool path.
type pass struct {
	cells     int
	colds     int
	campaign  time.Duration
	samples   int
	training  time.Duration
	trainRows int
	plans     []time.Duration
	pred      *sizeless.Predictor
	model     *core.Model
	shape     modelShape
	ds        *dataset.Dataset
	test      *dataset.Dataset
}

// pipeline runs the batch tools once: generate functions and measure them
// on every size (what GenerateDataset runs), train on most of them,
// recommend for the rest, and plan every case-study app on every provider.
// Planning is skipped when plan is false. With replay set the campaign
// runs on one worker and every cell is
// replayed layer by layer, so span self times add up.
func pipeline(ctx context.Context, r *run, tr *tracer, rootName string, n int, plan, replay bool) (*pass, error) {
	root := tr.begin(rootName, -1, 0)
	p, err := runPass(ctx, r, tr, root, n, plan, replay)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	// Reloading the model is the benchmark's bookkeeping, so it happens
	// outside the pass's span.
	if p.model, err = coreModel(p.pred); err == nil {
		p.shape, err = shapeOf(p.pred)
	}
	if err != nil {
		return nil, err
	}
	p.samples = p.trainRows * trainEpochs * p.shape.members
	r.check(slices.Equal(features.Names(p.model.Config().Features), features.Names(features.PaperFinalFeatures())),
		"the trained model's features differ from the replayed default features")
	return p, nil
}

func runPass(ctx context.Context, r *run, tr *tracer, root, n int, plan, replay bool) (*pass, error) {
	p := &pass{}
	t0 := time.Now()
	var fns []fngen.Function
	if err := tr.do("fngen.generate", root, 0, func() (err error) {
		fns, err = fngen.New(xrand.New(r.seed), fngen.Options{}).Generate(n)
		return err
	}); err != nil {
		return nil, err
	}
	specs := make([]*workload.Spec, len(fns))
	for i, fn := range fns {
		specs[i] = fn.Spec
	}
	aws := sizeless.AWSLambda()
	opts := harness.Options{Env: rt.NewEnvFor(aws.Platform()), Rate: campaignRate, Duration: batchDuration, Sizes: aws.DefaultSizes(), Seed: r.seed}
	if replay {
		opts.Workers = 1
	}
	build := tr.begin("harness.build", root, 0)
	ds, err := harness.BuildDataset(ctx, opts, specs)
	tr.end(build)
	if err != nil {
		return nil, err
	}
	p.campaign, p.cells, p.ds = time.Since(t0), len(specs)*len(opts.Sizes), ds
	if replay {
		_, p.colds = replayCampaign(r, tr, build, 0, opts, specs)
	}
	err = ds.Validate()
	r.check(err == nil, "generated dataset fails Validate: %v", err)

	trainDS, testDS, err := ds.Split(heldOut, xrand.New(r.seed).Derive("split"))
	if err != nil {
		return nil, err
	}
	p.test = testDS
	t1 := time.Now()
	if err := tr.do("core.train", root, 0, func() (err error) {
		p.pred, err = train(ctx, trainDS, r.seed)
		return err
	}); err != nil {
		return nil, err
	}
	p.training, p.trainRows = time.Since(t1), len(trainDS.Rows)

	sums := make([]monitoring.Summary, len(testDS.Rows))
	for i := range testDS.Rows {
		sums[i] = testDS.Rows[i].Summaries[p.pred.Base()]
	}
	rec := tr.begin("sizeless.recommend_batch", root, 0)
	recs, err := p.pred.RecommendBatch(ctx, sums, tradeoff)
	tr.end(rec)
	r.count(err)
	r.check(err != nil || len(recs) == len(sums), "RecommendBatch returned %d rows for %d summaries", len(recs), len(sums))
	if replay && err == nil {
		replayRecommend(ctx, r, tr, rec, p, sums)
	}
	if plan {
		p.plans = planApps(ctx, r, tr, root, 0, providers(), r.seed, replay)
	}
	return p, nil
}

// replayRecommend replays RecommendBatch's parts under its span: the
// batched prediction (and its feature extraction) and one optimizer call
// per row.
func replayRecommend(ctx context.Context, r *run, tr *tracer, parent int, p *pass, sums []monitoring.Summary) {
	pricing := p.pred.Provider().Platform().Pricing
	feats := features.PaperFinalFeatures()
	dst := make([]float64, len(feats))
	batch := tr.begin("core.predict_batch.heldout", parent, 0)
	times, err := p.pred.PredictBatch(ctx, sums)
	tr.end(batch)
	r.count(err)
	for i := range times {
		tr.do("features.extract", batch, 0, func() error {
			features.ExtractInto(dst, feats, sums[i])
			return nil
		})
		r.count(tr.do("optimizer.optimize", parent, 0, func() error {
			_, err := optimizer.Optimize(times[i], pricing, tradeoff)
			return err
		}))
	}
}

// batchSetup is the batch tools' process-level set-up: resolve the
// providers and their environments, then run one small campaign and
// training pass so lazily built state is in place before timing.
func batchSetup(ctx context.Context, r *run) (time.Duration, error) {
	t0 := time.Now()
	for _, p := range providers() {
		rt.NewEnvFor(p.Platform())
	}
	if _, err := pipeline(ctx, r, nil, "setup", 8, false, false); err != nil {
		return 0, fmt.Errorf("set-up pass: %w", err)
	}
	return time.Since(t0), nil
}

func runBatch(ctx context.Context, r *run) error {
	var took []float64
	for i := 0; i < setupReps; i++ {
		d, err := batchSetup(ctx, r)
		if err != nil {
			return err
		}
		took = append(took, d.Seconds())
	}
	r.set("setup_s", median(took), "s")
	if r.trace {
		return traceBatch(ctx, r)
	}
	var total pass
	var first *pass
	start := time.Now()
	for time.Since(start) < r.seconds {
		p, err := pipeline(ctx, r, nil, "pipeline", batchFunctions, true, false)
		if err != nil {
			return err
		}
		if first == nil {
			first = p
		}
		total.cells += p.cells
		total.campaign += p.campaign
		total.samples += p.samples
		total.training += p.training
		total.plans = append(total.plans, p.plans...)
	}
	mape, pick, err := quality(ctx, first.pred, first.test.Rows, first.ds.Sizes)
	if err != nil {
		return err
	}
	r.printf("detail: this seed's held-out rows: prediction_mape_pct=%.2f optimal_pick_pct=%.2f over %d functions\n", mape, pick, len(first.test.Rows))
	if mape, pick, err = referenceQuality(ctx); err != nil {
		return err
	}
	var lat []float64
	var planTime time.Duration
	for _, d := range total.plans {
		lat = append(lat, ms(d))
		planTime += d
	}
	r.printf("passes: %d, %d cells, %d plans in %.2fs\n", len(total.plans)/len(first.plans), total.cells, len(total.plans), time.Since(start).Seconds())
	r.printf("detail: plan latency p50=%.3fms p95=%.3fms of %d plans\n", quantile(lat, 0.5), quantile(lat, 0.95), len(lat))
	r.set("throughput_per_s", float64(len(total.plans))/planTime.Seconds(), "1/s")
	r.set("campaign_cells_per_s", float64(total.cells)/total.campaign.Seconds(), "1/s")
	r.set("train_samples_per_s", float64(total.samples)/total.training.Seconds(), "1/s")
	r.set("prediction_mape_pct", mape, "%")
	r.set("optimal_pick_pct", pick, "%")
	return nil
}

// referenceQuality trains the model the daemon workloads serve, untimed,
// and scores it on its held-out rows.
func referenceQuality(ctx context.Context) (mape, pick float64, err error) {
	ds, err := referenceCampaign(ctx)
	if err != nil {
		return 0, 0, err
	}
	trainDS, testDS, err := ds.Split(heldOut, xrand.New(setupSeed))
	if err != nil {
		return 0, 0, err
	}
	pred, err := train(ctx, trainDS, setupSeed)
	if err != nil {
		return 0, 0, err
	}
	return quality(ctx, pred, testDS.Rows, ds.Sizes)
}

// traceBatch is the traced run of batch-pipeline: an untraced and a traced
// pass (their wall-time difference is the tracing overhead), a replay pass
// whose spans give the shares, and a census of the daemon layers serving
// the model the pass trained.
func traceBatch(ctx context.Context, r *run) error {
	t0 := time.Now()
	plain, err := pipeline(ctx, r, nil, "pipeline", batchFunctions, true, false)
	if err != nil {
		return err
	}
	plainTook := time.Since(t0)
	tr := newTracer()
	t1 := time.Now()
	if _, err := pipeline(ctx, r, tr, "pipeline.timed", batchFunctions, true, false); err != nil {
		return err
	}
	r.set("trace.overhead_pct", 100*(time.Since(t1).Seconds()/plainTook.Seconds()-1), "%")
	p, err := pipeline(ctx, r, tr, "pipeline", batchFunctions, true, true)
	if err != nil {
		return err
	}
	setTraining(r, plain.shape, plain.samples, plain.training.Seconds())
	if err := censusDaemon(ctx, r, tr, p); err != nil {
		return err
	}
	setLayerMetrics(r, tr.spans, p.shape, recRows)
	setSeeding(r, tr.spans, p.colds, p.cells)
	setShares(r, tr.spans, "pipeline")
	return writeTrace(r, tr)
}

// censusDaemon serves the pass's model from a daemon and measures the
// daemon layers on it with drifting traffic, off the batch path.
func censusDaemon(ctx context.Context, r *run, tr *tracer, p *pass) error {
	in, err := makeInputs(r.seed, driftScale["drift-mixed"])
	if err != nil {
		return err
	}
	if err := in.expect(ctx, p.pred); err != nil {
		return err
	}
	d, err := startDaemon(p.pred, r.dir+"/census.snap", censusSeconds/2, r.conns)
	if err != nil {
		return err
	}
	err = d.warmUp(in)
	if err == nil {
		l := newLoad(in, d, p.pred)
		l.verify(r, "census warm-up")
		rates := daemonMix["drift-mixed"]
		l.livePhases(r, tr, rates, censusSeconds)
		if err = probeDaemon(r, l, rates, censusSeconds); err == nil {
			replayLayers(ctx, r, tr, p.pred, p.model, l, rates, p.test.Rows)
		}
	}
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	return err
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
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
	"sizeless/internal/serve"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

const (
	// depthEvery is the queue-depth sampler's period.
	depthEvery = 20 * time.Millisecond
	// commitProbes is how many ingest bodies the commit-lag probe follows.
	commitProbes = 16
	// commitWait bounds the wait for one body's windows to commit.
	commitWait = 10 * time.Second
	// commitPoll spaces the status polls, leaving the CPUs to the drainers
	// whose lag the probe measures.
	commitPoll = 250 * time.Microsecond
)

// probeDaemon measures the live daemon untraced: an open-loop phase of dur
// while a second connection samples queue depths from /v1/healthz, then the
// commit-lag probe, snapshot writes, and the health counters. Every
// /v1/healthz call fingerprints the whole model, a CPU load of its own, so
// no latency is taken from the sampled phase.
func probeDaemon(r *run, l *load, rates [nKinds]float64, dur time.Duration) error {
	probe := &http.Client{Timeout: missMs * time.Millisecond, Transport: &http.Transport{DisableCompression: true}}
	defer probe.CloseIdleConnections()
	type sample struct {
		peak int
		took []float64 // ms per /v1/healthz call
	}
	stop := make(chan struct{})
	depth := make(chan sample, 1) // the sampler's single result
	go func() {
		var s sample
		for {
			select {
			case <-stop:
				depth <- s
				return
			case <-time.After(depthEvery):
			}
			t0 := time.Now()
			var h serve.Health
			err := l.d.call(probe, "GET", "/v1/healthz", nil, http.StatusOK, &h)
			r.count(err)
			if err != nil {
				continue
			}
			s.took = append(s.took, ms(time.Since(t0)))
			n := 0
			for _, q := range h.Queues {
				n += q.Depth
			}
			s.peak = max(s.peak, n)
		}
	}()
	sampled := l.openLoop(r, nil, "open-loop sampled", xrand.New(r.seed).Derive("open"), rates, dur)
	close(stop)
	s := <-depth
	r.set("serve.queue_depth_max", float64(s.peak), "count")
	sampled.print(r)
	r.printf("detail: queue-depth sampler: %d /v1/healthz calls, p50 %.3fms each\n", len(s.took), median(s.took))
	l.verify(r, "sampled")

	var lags []float64
probes:
	for i := 0; i < commitProbes; i++ {
		b, err := l.ingest()
		r.count(err)
		if err != nil {
			continue
		}
		acked := time.Now()
		deadline := acked.Add(commitWait)
		for _, w := range b.windows {
			l.mu.Lock()
			want := l.seen[w.fn]
			l.mu.Unlock()
			for {
				var st struct{ Observed int }
				err := l.d.call(probe, "GET", "/v1/status?function="+w.fn, nil, http.StatusOK, &st)
				if err != nil || st.Observed >= want {
					r.count(err)
					break
				}
				if time.Now().After(deadline) {
					r.check(false, "commit-lag probe: %s holds %d of %d invocations %v after its 202", w.fn, st.Observed, want, commitWait)
					break probes
				}
				time.Sleep(commitPoll)
			}
		}
		lags = append(lags, ms(time.Since(acked)))
	}
	r.set("serve.commit_lag_ms", median(lags), "ms")

	var buf bytes.Buffer
	snap, err := timeN(3, func() error {
		buf.Reset()
		return l.d.srv.WriteSnapshot(&buf)
	})
	r.count(err)
	r.set("serve.snapshot_ms", ms(snap), "ms")
	r.set("serve.snapshot_kb", float64(buf.Len())/1024, "KiB")

	fleet := l.verify(r, "probes")
	var h serve.Health
	err = l.d.call(probe, "GET", "/v1/healthz", nil, http.StatusOK, &h)
	r.count(err)
	if fleet == nil || err != nil {
		return fmt.Errorf("daemon probes failed: %v", err)
	}
	r.set("serve.rejected", float64(h.RejectedBatches), "count")
	r.set("serve.ingest_errors", float64(h.IngestErrors), "count")
	r.set("recommender.recompute_ratio", float64(fleet.Summary.Recomputations)/float64(max(l.posted, 1)), "ratio")
	return nil
}

// replayLayers replays the daemon workload's inputs through each layer's
// public functions on a fresh service warmed like the daemon. Root spans
// "request", "recommend" and "fleet" are the blocking paths of the three
// request kinds, replayed in the workload's proportions (at least
// recBodies of each); a "census" root times the inference layers on the
// held-out rows.
func replayLayers(ctx context.Context, r *run, tr *tracer, pred *sizeless.Predictor, m *core.Model, l *load, rates [nKinds]float64, heldOut []dataset.Row) {
	svc, err := pred.NewService(sizeless.WithTradeoff(tradeoff))
	r.count(err)
	if err != nil {
		return
	}
	baseline := map[string][]monitoring.Invocation{}
	for _, b := range l.in.warm {
		for _, w := range b.windows {
			_, err := svc.Ingest(ctx, w.fn, w.invs)
			r.count(err)
			baseline[w.fn] = w.invs
		}
	}
	var cfg monitoring.DriftDetectorConfig
	pricing := pred.Provider().Platform().Pricing
	feats := m.Config().Features
	dst := make([]float64, len(feats))
	prepared := map[string]*monitoring.PreparedBaseline{}
	recomputes := map[string]int{}

	nIngest := 2 * groups
	for j := 0; j < nIngest; j++ {
		b := l.in.ingestBodyAt(int64(j))
		root := tr.begin("request", -1, j)
		var req serve.IngestRequest
		err := tr.do("serve.decode", root, j, func() error { return decodeStrict(b.raw, &req) })
		r.count(err)
		for _, w := range sortedWindows(&req) {
			ing := tr.begin("recommender.ingest", root, j)
			st, err := svc.Ingest(ctx, w.fn, w.invs)
			tr.end(ing)
			r.count(err)
			drifted := st.Recomputations > recomputes[w.fn]
			recomputes[w.fn] = st.Recomputations
			var report monitoring.DriftReport
			err = tr.do("monitoring.drift", ing, j, func() (err error) {
				if prepared[w.fn] == nil {
					prepared[w.fn] = monitoring.PrepareBaseline(baseline[w.fn], cfg)
				}
				report, err = monitoring.DetectDriftAgainst(prepared[w.fn], w.invs, cfg)
				return err
			})
			r.count(err)
			r.check(report.Drifted() == drifted, "replayed drift check on %s disagrees with the service", w.fn)
			if !drifted {
				continue
			}
			var sum monitoring.Summary
			r.count(tr.do("monitoring.summarize", ing, j, func() (err error) {
				sum, err = monitoring.Summarize(w.invs)
				return err
			}))
			pr := tr.begin("core.predict", ing, j)
			times, err := m.Predict(sum)
			tr.end(pr)
			r.count(err)
			tr.do("features.extract", pr, j, func() error {
				features.ExtractInto(dst, feats, sum)
				return nil
			})
			r.count(tr.do("optimizer.optimize", ing, j, func() error {
				_, err := optimizer.Optimize(times, pricing, tradeoff)
				return err
			}))
			baseline[w.fn] = w.invs
			prepared[w.fn] = nil
		}
		tr.end(root)
	}

	nRec := max(recBodies, int(float64(nIngest)*rates[kRecommend]/max(rates[kIngest], 1)))
	for k := 0; k < nRec; k++ {
		b := &l.in.recommend[k%len(l.in.recommend)]
		root := tr.begin("recommend", -1, k)
		var req serve.RecommendRequest
		r.count(tr.do("serve.decode_recommend", root, k, func() error { return decodeStrict(b.raw, &req) }))
		rec := tr.begin("recommender.recommend", root, k)
		recs, err := svc.RecommendBatch(ctx, req.Summaries)
		tr.end(rec)
		r.count(err)
		r.check(err != nil || len(recs) == len(b.want), "replayed recommend returned %d rows", len(recs))
		for i := range recs {
			r.check(recs[i].Best == b.want[i], "replayed recommendation %d is %v, want %v", i, recs[i].Best, b.want[i])
		}
		batch := tr.begin("core.predict_batch", rec, k)
		times, err := pred.PredictBatch(ctx, req.Summaries)
		tr.end(batch)
		r.count(err)
		for i := range times {
			tr.do("features.extract", batch, k, func() error {
				features.ExtractInto(dst, feats, req.Summaries[i])
				return nil
			})
			r.count(tr.do("optimizer.optimize", rec, k, func() error {
				_, err := optimizer.Optimize(times[i], pricing, tradeoff)
				return err
			}))
		}
		r.count(tr.do("serve.encode", root, k, func() error {
			_, err := json.Marshal(serve.RecommendResponse{Recommendations: recs})
			return err
		}))
		tr.end(root)
	}

	nFleet := max(recBodies, int(float64(nIngest)*rates[kFleet]/max(rates[kIngest], 1)))
	for f := 0; f < nFleet; f++ {
		root := tr.begin("fleet", -1, f)
		r.count(tr.do("recommender.fleet", root, f, func() error {
			_, err := json.Marshal(serve.FleetResponse{Summary: svc.Summarize(), Functions: svc.Fleet()})
			return err
		}))
		tr.end(root)
	}

	census := tr.begin("census", -1, 0)
	sums := make([]monitoring.Summary, len(heldOut))
	for i := range heldOut {
		sums[i] = heldOut[i].Summaries[pred.Base()]
	}
	mismatch := replayInference(ctx, r, tr, census, 0, pred, m, sums)
	for j := 0; j < nIngest; j++ {
		for _, w := range l.in.ingestBodyAt(int64(j)).windows {
			r.count(tr.do("monitoring.summarize", census, j, func() error {
				_, err := monitoring.Summarize(w.invs)
				return err
			}))
		}
	}
	tr.end(census)
	r.set("core.row_batch_mismatch", float64(mismatch), "count")
	r.printf("core.row_batch_mismatch: %d of %d held-out rows differ bitwise between Predict and PredictBatch (known defect, reported only)\n", mismatch, len(sums))
	var ingestKB []float64
	for j := 0; j < nIngest; j++ {
		ingestKB = append(ingestKB, float64(len(l.in.ingestBodyAt(int64(j)).raw))/1024)
	}
	r.set("serve.body_kb", median(ingestKB), "KiB")
}

// decodeStrict decodes a request body the way the daemon does.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// replaySetupCampaign replays the daemon's fixed-seed set-up campaign —
// function generation, then every cell — under parent.
func replaySetupCampaign(r *run, tr *tracer, parent int, p platform.Provider) (cells, colds int) {
	var fns []fngen.Function
	r.count(tr.do("fngen.generate", parent, 0, func() (err error) {
		fns, err = fngen.New(xrand.New(setupSeed), fngen.Options{}).Generate(setupFunctions)
		return err
	}))
	specs := make([]*workload.Spec, len(fns))
	for i, fn := range fns {
		specs[i] = fn.Spec
	}
	opts := harness.Options{Env: rt.NewEnvFor(p.Platform()), Rate: campaignRate, Duration: setupDuration, Sizes: p.DefaultSizes(), Seed: setupSeed}
	return replayCampaign(r, tr, parent, 0, opts, specs)
}

// writeTrace writes the spans next to the scratch directory when the run
// ends.
func writeTrace(r *run, tr *tracer) error {
	path := filepath.Join(filepath.Dir(r.dir), fmt.Sprintf("trace-%s-seed%d.jsonl", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, tr.spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.printf("spans: %d written to %s\n", len(tr.spans), path)
	return nil
}

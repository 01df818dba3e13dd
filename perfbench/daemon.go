package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sizeless"
	"sizeless/internal/core"
	"sizeless/internal/dataset"
	"sizeless/internal/fleetsynth"
	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/serve"
	"sizeless/internal/xrand"
)

const (
	groups         = 16  // ingest bodies per pass over the fleet
	groupFns       = 16  // functions per ingest body
	windowLen      = 100 // invocations per monitoring window
	recBodies      = 8   // distinct recommend bodies
	recRows        = 32  // summaries per recommend body
	setupReps      = 3   // set-ups per run; setup_s is their median
	setupSeed      = 1   // the daemon's model comes from a fixed-seed campaign
	setupFunctions = 120 // functions in that campaign
	setupDuration  = 5 * time.Second
	missMs         = 60000 // latency charged to a failed or refused request
)

// Request kinds of the daemon workloads.
const (
	kIngest = iota
	kRecommend
	kFleet
	nKinds
)

var kindNames = [nKinds]string{"ingest", "recommend", "fleet"}

// replayRoots names the span trees that replay each kind's blocking path.
var replayRoots = [nKinds]string{"request", "recommend", "fleet"}

// daemonMix is each daemon workload's open-loop rate per request kind
// (req/s); both phases cycle through the kinds in these proportions. The
// totals sit near a quarter of the closed-loop capacity measured on a
// 2-vCPU host (~75-100 req/s on both): at half capacity, queueing
// amplified the host's run-to-run speed changes into a tail latency that
// spread by over 40% between runs. drift-mixed's 1:2:1
// ingest:recommend:fleet proportions, like its recRows summaries per
// recommend batch, are an assumption: neither the paper nor the daemon's
// design states a traffic mix, and the layer shares on drift-mixed follow
// from it.
var daemonMix = map[string][nKinds]float64{
	"ingest-stationary": {20, 0, 0},
	"drift-mixed":       {5, 10, 5},
}

// driftScale is the load scale of every other pass's windows: 1 keeps the
// fleet stationary, 3 makes every committed window drift and recompute.
var driftScale = map[string]float64{"ingest-stationary": 1, "drift-mixed": 3}

type window struct {
	fn   string
	invs []monitoring.Invocation
}

type ingestBody struct {
	raw     []byte
	windows []window // ascending function ID
}

type recommendBody struct {
	raw  []byte
	sums []monitoring.Summary
	want []platform.MemorySize // the predictor's picks, filled after set-up
}

// inputs is everything a daemon workload sends, generated from the seed
// and JSON-encoded before any timer starts.
type inputs struct {
	fns       []string
	warm      []ingestBody // one per group, scale 1
	ingest    []ingestBody // group*2 + pass parity
	recommend []recommendBody
}

func makeInputs(seed int64, scale float64) (*inputs, error) {
	root := xrand.New(seed)
	in := &inputs{}
	body := func(g int, name string, s float64) (ingestBody, error) {
		rng := root.Derive(name)
		req := serve.IngestRequest{Windows: map[string][]monitoring.Invocation{}}
		var b ingestBody
		for i := 0; i < groupFns; i++ {
			fn := fmt.Sprintf("fn-%03d", g*groupFns+i)
			invs := fleetsynth.Window(rng.DeriveIndexed("fn", i), windowLen, s)
			req.Windows[fn] = invs
			b.windows = append(b.windows, window{fn, invs})
		}
		var err error
		b.raw, err = json.Marshal(req)
		return b, err
	}
	for g := 0; g < groups; g++ {
		b, err := body(g, fmt.Sprintf("warm/%d", g), 1)
		if err != nil {
			return nil, err
		}
		in.warm = append(in.warm, b)
		for _, w := range b.windows {
			in.fns = append(in.fns, w.fn)
		}
		for parity, s := range []float64{scale, 1} {
			b, err := body(g, fmt.Sprintf("ingest/%d/%d", g, parity), s)
			if err != nil {
				return nil, err
			}
			in.ingest = append(in.ingest, b)
		}
	}
	rng := root.Derive("recommend")
	for k := 0; k < recBodies; k++ {
		var rb recommendBody
		for i := 0; i < recRows; i++ {
			w := fleetsynth.Window(rng.DeriveIndexed(fmt.Sprintf("body-%d", k), i), windowLen, 0.5+2.5*float64(i)/recRows)
			s, err := monitoring.Summarize(w)
			if err != nil {
				return nil, err
			}
			rb.sums = append(rb.sums, s)
		}
		var err error
		if rb.raw, err = json.Marshal(serve.RecommendRequest{Summaries: rb.sums}); err != nil {
			return nil, err
		}
		in.recommend = append(in.recommend, rb)
	}
	return in, nil
}

// ingestBodyAt is the j-th ingest body of the sequence: groups in turn, and
// each group's windows alternate between the two passes, so on drift-mixed
// every committed window differs in scale from the baseline before it.
func (in *inputs) ingestBodyAt(j int64) *ingestBody {
	return &in.ingest[int(j%groups)*2+int(j/groups%2)]
}

// daemon is one `sizeless serve` instance on a loopback port.
type daemon struct {
	srv    *serve.Server
	cancel context.CancelFunc
	done   chan error
	url    string
	client *http.Client
}

// startDaemon starts a daemon that snapshots every interval.
func startDaemon(pred *sizeless.Predictor, snapshot string, interval time.Duration, conns int) (*daemon, error) {
	srv, err := serve.New(serve.Config{
		Predictor:        pred,
		ServiceOptions:   []sizeless.Option{sizeless.WithTradeoff(tradeoff)},
		Addr:             "127.0.0.1:0",
		QueueDepth:       256,
		QueueBytes:       4 << 20,
		SnapshotPath:     snapshot,
		SnapshotInterval: interval,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{srv: srv, cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Run(ctx) }()
	select {
	case <-srv.Started():
	case err := <-d.done:
		cancel()
		return nil, fmt.Errorf("daemon exited before listening: %v", err)
	}
	d.url = "http://" + srv.Addr()
	d.client = &http.Client{
		Timeout: missMs * time.Millisecond,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return d, nil
}

// stop shuts the daemon down and waits for Run to return.
func (d *daemon) stop() error {
	d.cancel()
	err := <-d.done
	d.client.CloseIdleConnections()
	return err
}

// call sends one request and decodes the response into out; any status
// other than want is an error.
func (d *daemon) call(c *http.Client, method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.url+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// warmUp posts one window for every function of the fleet and waits until
// they are committed.
func (d *daemon) warmUp(in *inputs) error {
	for _, b := range in.warm {
		if err := d.call(d.client, "POST", "/v1/ingest", b.raw, http.StatusAccepted, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	d.srv.Drain()
	return nil
}

// expect fills in each recommend body's expected picks from the predictor.
func (in *inputs) expect(ctx context.Context, pred *sizeless.Predictor) error {
	for k := range in.recommend {
		recs, err := pred.RecommendBatch(ctx, in.recommend[k].sums, tradeoff)
		if err != nil {
			return err
		}
		in.recommend[k].want = in.recommend[k].want[:0]
		for _, rec := range recs {
			in.recommend[k].want = append(in.recommend[k].want, rec.Best)
		}
	}
	return nil
}

// snapshotEvery is the daemon's snapshot interval: a fifth of the run, so
// that every load phase spans one whole interval and contains one periodic
// snapshot.
func snapshotEvery(r *run) time.Duration {
	return max(r.seconds/5, 100*time.Millisecond)
}

// referenceCampaign is the fixed-seed campaign the daemon's model is
// trained on; every workload's quality metrics come from it, so they move
// with the code and not with the input seed.
func referenceCampaign(ctx context.Context) (*dataset.Dataset, error) {
	return sizeless.GenerateDataset(ctx, sizeless.WithFunctions(setupFunctions), sizeless.WithRate(campaignRate),
		sizeless.WithDuration(setupDuration), sizeless.WithSeed(setupSeed))
}

// daemonSetup is one set-up: the fixed-seed campaign, the trained model,
// and a started daemon warmed with one window per function.
type daemonSetup struct {
	pred     *sizeless.Predictor
	model    *core.Model
	shape    modelShape
	test     *dataset.Dataset
	sizes    []platform.MemorySize
	d        *daemon
	took     time.Duration
	campaign time.Duration
	training time.Duration
	cells    int
	samples  int
}

func setupDaemon(ctx context.Context, r *run, in *inputs, rep int) (*daemonSetup, error) {
	t0 := time.Now()
	ds, err := referenceCampaign(ctx)
	if err != nil {
		return nil, err
	}
	s := &daemonSetup{campaign: time.Since(t0), sizes: ds.Sizes, cells: len(ds.Rows) * len(ds.Sizes)}
	trainDS, testDS, err := ds.Split(heldOut, xrand.New(setupSeed))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if s.pred, err = train(ctx, trainDS, setupSeed); err != nil {
		return nil, err
	}
	s.training = time.Since(t1)
	s.test = testDS
	s.d, err = startDaemon(s.pred, filepath.Join(r.dir, fmt.Sprintf("fleet-%d.snap", rep)), snapshotEvery(r), r.conns)
	if err != nil {
		return nil, err
	}
	if err := s.d.warmUp(in); err != nil {
		return nil, fmt.Errorf("%w (daemon stop: %v)", err, s.d.stop())
	}
	s.took = time.Since(t0)
	if s.model, err = coreModel(s.pred); err == nil {
		s.shape, err = shapeOf(s.pred)
	}
	if err != nil {
		return nil, fmt.Errorf("%w (daemon stop: %v)", err, s.d.stop())
	}
	s.samples = len(trainDS.Rows) * trainEpochs * s.shape.members
	return s, nil
}

// setupAll runs setupReps set-ups, keeps the last daemon running, and
// reports the set-up metrics as medians.
func setupAll(ctx context.Context, r *run, in *inputs) (*daemonSetup, error) {
	var took, cells, samples, training []float64
	var s *daemonSetup
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			if err := s.d.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if s, err = setupDaemon(ctx, r, in, rep); err != nil {
			return nil, err
		}
		took = append(took, s.took.Seconds())
		cells = append(cells, float64(s.cells)/s.campaign.Seconds())
		samples = append(samples, float64(s.samples)/s.training.Seconds())
		training = append(training, s.training.Seconds())
	}
	r.set("setup_s", median(took), "s")
	r.set("campaign_cells_per_s", median(cells), "1/s")
	r.set("train_samples_per_s", median(samples), "1/s")
	setTraining(r, s.shape, s.samples, median(training))
	return s, nil
}

// load drives one daemon and tracks what it should hold.
type load struct {
	in     *inputs
	d      *daemon
	grid   map[platform.MemorySize]bool
	next   atomic.Int64 // ingest sequence number
	mu     sync.Mutex
	seen   map[string]int // invocations accepted per function
	posted int64          // windows accepted after warm-up
}

func newLoad(in *inputs, d *daemon, pred *sizeless.Predictor) *load {
	l := &load{in: in, d: d, grid: map[platform.MemorySize]bool{pred.Base(): true}, seen: map[string]int{}}
	for _, m := range pred.Sizes() {
		l.grid[m] = true
	}
	for _, b := range in.warm {
		for _, w := range b.windows {
			l.seen[w.fn] += len(w.invs)
		}
	}
	return l
}

// ingest posts the next body of the sequence and returns it.
func (l *load) ingest() (*ingestBody, error) {
	b := l.in.ingestBodyAt(l.next.Add(1) - 1)
	var resp serve.IngestResponse
	if err := l.d.call(l.d.client, "POST", "/v1/ingest", b.raw, http.StatusAccepted, &resp); err != nil {
		return b, err
	}
	if resp.QueuedFunctions != len(b.windows) || resp.QueuedInvocations != len(b.windows)*windowLen {
		return b, fmt.Errorf("ingest acknowledged %d functions / %d invocations, sent %d / %d",
			resp.QueuedFunctions, resp.QueuedInvocations, len(b.windows), len(b.windows)*windowLen)
	}
	l.mu.Lock()
	for _, w := range b.windows {
		l.seen[w.fn] += len(w.invs)
	}
	l.posted += int64(len(b.windows))
	l.mu.Unlock()
	return b, nil
}

// do sends one request of the given kind and checks its response.
func (l *load) do(kind, pick int) error {
	switch kind {
	case kIngest:
		_, err := l.ingest()
		return err
	case kRecommend:
		b := &l.in.recommend[pick%len(l.in.recommend)]
		var resp serve.RecommendResponse
		if err := l.d.call(l.d.client, "POST", "/v1/recommend", b.raw, http.StatusOK, &resp); err != nil {
			return err
		}
		if len(resp.Recommendations) != len(b.sums) {
			return fmt.Errorf("recommend returned %d recommendations for %d summaries", len(resp.Recommendations), len(b.sums))
		}
		for i, rec := range resp.Recommendations {
			if rec.Best != b.want[i] {
				return fmt.Errorf("recommendation %d is %v, want %v: response misaligned with request", i, rec.Best, b.want[i])
			}
		}
		return nil
	default:
		var resp serve.FleetResponse
		if err := l.d.call(l.d.client, "GET", "/v1/fleet", nil, http.StatusOK, &resp); err != nil {
			return err
		}
		if len(resp.Functions) != len(l.in.fns) {
			return fmt.Errorf("fleet lists %d functions, want %d", len(resp.Functions), len(l.in.fns))
		}
		return nil
	}
}

// phase collects one load phase's samples.
type phase struct {
	name    string
	mu      sync.Mutex
	lat     [nKinds][]float64 // ms, misses charged missMs
	lag     []float64         // ms the generator sent late
	sent    [nKinds]int
	failed  [nKinds]int
	elapsed time.Duration
}

func (p *phase) record(kind int, latMs float64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sent[kind]++
	if err != nil {
		p.failed[kind]++
		latMs = missMs
	}
	p.lat[kind] = append(p.lat[kind], latMs)
}

// merge adds q's samples and counts to p.
func (p *phase) merge(q *phase) {
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], q.lat[k]...)
		p.sent[k] += q.sent[k]
		p.failed[k] += q.failed[k]
	}
	p.lag = append(p.lag, q.lag...)
	p.elapsed += q.elapsed
}

func (p *phase) all() []float64 {
	var xs []float64
	for k := range p.lat {
		xs = append(xs, p.lat[k]...)
	}
	return xs
}

func (p *phase) ok() int {
	n := 0
	for k := range p.sent {
		n += p.sent[k] - p.failed[k]
	}
	return n
}

func (p *phase) print(r *run) {
	r.printf("phase %s: %.2fs\n", p.name, p.elapsed.Seconds())
	for k := range p.sent {
		if p.sent[k] == 0 {
			continue
		}
		lat := append([]float64(nil), p.lat[k]...)
		r.printf("  %-9s sent=%d succeeded=%d failed=%d p50=%.3fms p95=%.3fms p99=%.3fms\n", kindNames[k],
			p.sent[k], p.sent[k]-p.failed[k], p.failed[k], quantile(lat, 0.5), quantile(lat, 0.95), quantile(lat, 0.99))
	}
	if len(p.lag) > 0 {
		r.printf("  generator lag p99=%.3fms\n", quantile(append([]float64(nil), p.lag...), 0.99))
	}
}

func (l *load) exec(r *run, tr *tracer, p *phase, kind, pick int, due time.Time) {
	id := tr.begin("client."+kindNames[kind], -1, pick)
	err := l.do(kind, pick)
	tr.end(id)
	r.count(err)
	p.record(kind, ms(time.Since(due)), err)
}

// mixOrder interleaves the request kinds in proportion to rates (smooth
// weighted round robin), so that every run sends exactly the same mix.
func mixOrder(rates [nKinds]float64) []int {
	unit := 0.0
	for _, v := range rates {
		if v > 0 && (unit == 0 || v < unit) {
			unit = v
		}
	}
	var weight, current [nKinds]int
	sum := 0
	for k, v := range rates {
		weight[k] = int(math.Round(v / unit))
		sum += weight[k]
	}
	order := make([]int, sum)
	for i := range order {
		best := 0
		for k := range current {
			current[k] += weight[k]
			if current[k] > current[best] {
				best = k
			}
		}
		current[best] -= sum
		order[i] = best
	}
	return order
}

func total(rates [nKinds]float64) float64 {
	var t float64
	for _, v := range rates {
		t += v
	}
	return t
}

type job struct {
	kind, pick int
	due        time.Time
}

// openLoop sends a seeded Poisson schedule at the total rate, cycling
// through the kinds in mixOrder, over r.conns connections, and times each
// request from when it was due.
func (l *load) openLoop(r *run, tr *tracer, name string, rng *xrand.Stream, rates [nKinds]float64, dur time.Duration) *phase {
	sum, order := total(rates), mixOrder(rates)
	type arrival struct {
		at         time.Duration
		kind, pick int
	}
	var arr []arrival
	for t := rng.Exponential(1 / sum); t < dur.Seconds(); t += rng.Exponential(1 / sum) {
		arr = append(arr, arrival{time.Duration(t * float64(time.Second)), order[len(arr)%len(order)], rng.Intn(1 << 30)})
	}
	p := &phase{name: name}
	jobs := make(chan job, len(arr)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				l.exec(r, tr, p, j.kind, j.pick, j.due)
			}
		}()
	}
	start := time.Now()
	for _, a := range arr {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		p.lag = append(p.lag, ms(time.Since(due)))
		jobs <- job{a.kind, a.pick, due}
	}
	close(jobs)
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// closedLoop runs r.conns callers back to back for dur, then drains the
// daemon; the phase ends when every accepted window is committed.
func (l *load) closedLoop(r *run, tr *tracer, name string, rng *xrand.Stream, rates [nKinds]float64, dur time.Duration) *phase {
	order := mixOrder(rates)
	p := &phase{name: name}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		wrng := rng.DeriveIndexed("caller", w)
		go func() {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i++ {
				l.exec(r, tr, p, order[i%len(order)], wrng.Intn(1<<30), time.Now())
			}
		}()
	}
	wg.Wait()
	l.d.srv.Drain()
	p.elapsed = time.Since(start)
	return p
}

// verify drains the daemon and checks that /v1/fleet holds every function
// with the invocations sent to it and a recommendation on the provider's
// grid, and that /v1/healthz reports no ingest error or refusal.
func (l *load) verify(r *run, label string) *serve.FleetResponse {
	l.d.srv.Drain()
	var fleet serve.FleetResponse
	err := l.d.call(l.d.client, "GET", "/v1/fleet", nil, http.StatusOK, &fleet)
	r.count(err)
	if err != nil {
		return nil
	}
	r.check(len(fleet.Functions) == len(l.in.fns), "%s: fleet lists %d functions, want %d", label, len(fleet.Functions), len(l.in.fns))
	l.mu.Lock()
	for _, st := range fleet.Functions {
		r.check(st.Observed == l.seen[st.FunctionID], "%s: %s observed %d invocations, sent %d", label, st.FunctionID, st.Observed, l.seen[st.FunctionID])
		r.check(st.HasRecommendation && l.grid[st.Recommendation.Best], "%s: %s has no recommendation on the grid", label, st.FunctionID)
	}
	l.mu.Unlock()
	var h serve.Health
	err = l.d.call(l.d.client, "GET", "/v1/healthz", nil, http.StatusOK, &h)
	r.count(err)
	if err == nil {
		r.check(h.IngestErrors == 0, "%s: %d ingest errors: %v", label, h.IngestErrors, h.LastErrors)
		r.check(h.RejectedBatches == 0, "%s: %d ingest batches refused", label, h.RejectedBatches)
	}
	return &fleet
}

func runDaemon(ctx context.Context, r *run) error {
	in, err := makeInputs(r.seed, driftScale[r.workload])
	if err != nil {
		return err
	}
	s, err := setupAll(ctx, r, in)
	if err != nil {
		return err
	}
	err = driveDaemon(ctx, r, in, s)
	if stopErr := s.d.stop(); err == nil {
		err = stopErr
	}
	return err
}

func driveDaemon(ctx context.Context, r *run, in *inputs, s *daemonSetup) error {
	if err := in.expect(ctx, s.pred); err != nil {
		return err
	}
	mape, pick, err := quality(ctx, s.pred, s.test.Rows, s.sizes)
	if err != nil {
		return err
	}
	r.set("prediction_mape_pct", mape, "%")
	r.set("optimal_pick_pct", pick, "%")
	l := newLoad(in, s.d, s.pred)
	l.verify(r, "warm-up")
	rates := daemonMix[r.workload]
	if r.trace {
		return traceDaemon(ctx, r, s, l, rates, 2*snapshotEvery(r))
	}
	// Closed- and open-loop phases of one snapshot interval each alternate,
	// closed first, so that throughput is sampled across the whole run: the
	// host's speed swings by a quarter over some ten seconds, and a single
	// closed-loop block saw one swing.
	open, closed := &phase{name: "open-loop"}, &phase{name: "closed-loop"}
	for i := 0; i < 5; i++ {
		if i%2 == 0 {
			closed.merge(l.closedLoop(r, nil, closed.name, xrand.New(r.seed).DeriveIndexed("closed", i), rates, snapshotEvery(r)))
			l.verify(r, closed.name)
		} else {
			open.merge(l.openLoop(r, nil, open.name, xrand.New(r.seed).DeriveIndexed("open", i), rates, snapshotEvery(r)))
			l.verify(r, open.name)
		}
	}
	open.print(r)
	closed.print(r)
	lat := open.all()
	r.printf("detail: open-loop latency over all kinds p50=%.3fms p95=%.3fms of %d requests\n",
		quantile(lat, 0.5), quantile(lat, 0.95), len(lat))
	r.set("throughput_per_s", float64(closed.ok())/closed.elapsed.Seconds(), "1/s")
	ok := closed.sent[kIngest] - closed.failed[kIngest]
	r.printf("detail: ingest_windows_per_s=%.1f over %d committed windows\n",
		float64(ok*groupFns)/closed.elapsed.Seconds(), ok*groupFns)
	return nil
}

// traceDaemon is the traced run of a daemon workload: the live phases
// (untraced and traced, of dur each, whose latency difference is the
// tracing overhead), the live probes, the layer replays, and a census of
// the layers off the daemon path: the set-up campaign and the plan path.
func traceDaemon(ctx context.Context, r *run, s *daemonSetup, l *load, rates [nKinds]float64, dur time.Duration) error {
	tr := newTracer()
	plain, traced := l.livePhases(r, tr, rates, dur)
	r.set("trace.overhead_pct", 100*(quantile(traced.all(), 0.5)/quantile(plain.all(), 0.5)-1), "%")
	cost := spanCost()
	r.printf("detail: one span costs %.0fns and a live request records one, %.4f%% of the untraced median latency\n",
		float64(cost), 100*ms(cost)/quantile(plain.all(), 0.5))
	if err := probeDaemon(r, l, rates, dur); err != nil {
		return err
	}
	replayLayers(ctx, r, tr, s.pred, s.model, l, rates, s.test.Rows)
	census := tr.begin("census", -1, 0)
	cells, colds := replaySetupCampaign(r, tr, census, s.pred.Provider())
	planApps(ctx, r, tr, census, 0, []platform.Provider{s.pred.Provider()}, r.seed, true)
	tr.end(census)
	setLayerMetrics(r, tr.spans, s.shape, recRows)
	setSeeding(r, tr.spans, colds, cells)
	var roots []string
	for k, rate := range rates {
		if rate > 0 {
			roots = append(roots, replayRoots[k])
		}
	}
	setShares(r, tr.spans, roots...)
	return writeTrace(r, tr)
}

// livePhases runs four open-loop phases of dur/2 on the same schedule, in
// the order untraced, traced, traced, untraced, with nothing else loading
// the daemon: the two sets differ only in tracing, and a steady drift in
// the host's speed cancels out of their comparison. It sets
// client.lag_p99_ms from the traced set and returns both sets.
func (l *load) livePhases(r *run, tr *tracer, rates [nKinds]float64, dur time.Duration) (plain, traced *phase) {
	plain, traced = &phase{name: "open-loop untraced"}, &phase{name: "open-loop traced"}
	for _, on := range []bool{false, true, true, false} {
		set, t := plain, (*tracer)(nil)
		if on {
			set, t = traced, tr
		}
		set.merge(l.openLoop(r, t, set.name, xrand.New(r.seed).Derive("open"), rates, dur/2))
		l.verify(r, set.name)
	}
	plain.print(r)
	traced.print(r)
	r.set("client.lag_p99_ms", quantile(append([]float64(nil), traced.lag...), 0.99), "ms")
	return plain, traced
}

// sortedWindows lists a decoded request's windows by function ID.
func sortedWindows(req *serve.IngestRequest) []window {
	out := make([]window, 0, len(req.Windows))
	for fn, invs := range req.Windows {
		out = append(out, window{fn, invs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].fn < out[j].fn })
	return out
}

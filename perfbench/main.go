// Command perfbench is the repository's end-to-end benchmark. It drives the
// two user paths of sizeless — the fleet daemon that `sizeless serve` runs,
// and the batch tools (campaign → train → recommend → plan) — on one named
// workload, checks every output, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ingest-stationary --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run replays the workload's inputs through each layer's
// public functions and the result carries the per-layer metrics instead.
// GOMAXPROCS=1 in the environment runs the program on one core.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run holds one invocation's settings and collects its outcome.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	conns    int    // client connections: nproc
	dir      string // scratch directory inside the checkout
	out      io.Writer

	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
}

// count records one attempted operation; a non-nil err marks it failed.
func (r *run) count(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// check records a correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		r.count(nil)
		return
	}
	r.count(fmt.Errorf("check failed: "+format, args...))
}

func (r *run) set(name string, value float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.mu.Unlock()
}

func (r *run) printf(format string, args ...any) { fmt.Fprintf(r.out, format, args...) }

var workloads = map[string]func(context.Context, *run) error{
	"ingest-stationary": runDaemon,
	"drift-mixed":       runDaemon,
	"batch-pipeline":    runBatch,
}

func main() {
	workload := flag.String("workload", "", "workload name: ingest-stationary, drift-mixed or batch-pipeline")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	r := newRun(workload, seed, time.Duration(seconds*float64(time.Second)), trace == 1, dir, out)
	res, err := execute(context.Background(), r, fn)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		out.Flush()
		return fmt.Errorf("%d of %d operations failed or failed a check", res.Failed, res.Attempted)
	}
	return nil
}

func newRun(workload string, seed int64, seconds time.Duration, trace bool, dir string, out io.Writer) *run {
	return &run{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		conns:    runtime.NumCPU(),
		dir:      dir,
		out:      out,
		metrics:  map[string]metric{},
	}
}

// execute runs one workload and assembles the result. Metrics a workload
// must report but did not are an error, never a silent zero.
func execute(ctx context.Context, r *run, fn func(context.Context, *run) error) (result, error) {
	r.printf("perfbench %s seed=%d seconds=%g trace=%v\n", r.workload, r.seed, r.seconds.Seconds(), r.trace)
	r.printf("host: %s GOMAXPROCS=%d nproc=%d cpu=%q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	if err := fn(ctx, r); err != nil {
		return result{}, err
	}
	want := endToEnd
	if r.trace {
		want = perLayer
		r.set("client.failed_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok {
			return result{}, fmt.Errorf("workload %s did not measure %s", r.workload, m.name)
		}
		if v.Unit != m.unit {
			return result{}, fmt.Errorf("metric %s measured in %s, declared in %s", m.name, v.Unit, m.unit)
		}
		res.Metrics[m.name] = v
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.printf("  %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	r.printf("operations: attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		r.printf("  problem: %s\n", p)
	}
	return res, nil
}

// cpuModel reads the CPU model name for the result header.
func cpuModel() string {
	b, err := os.ReadFile(filepath.Join("/proc", "cpuinfo"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json; the smoke test holds them
// to it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"campaign_cells_per_s", "1/s"},
	{"train_samples_per_s", "1/s"},
	{"prediction_mape_pct", "%"},
	{"optimal_pick_pct", "%"},
}

var perLayer = []metricDef{
	{"serve.decode_ms", "ms"},
	{"serve.body_kb", "KiB"},
	{"serve.commit_lag_ms", "ms"},
	{"serve.queue_depth_max", "count"},
	{"serve.rejected", "count"},
	{"serve.ingest_errors", "count"},
	{"serve.snapshot_ms", "ms"},
	{"serve.snapshot_kb", "KiB"},
	{"recommender.ingest_us", "us"},
	{"recommender.recompute_ratio", "ratio"},
	{"recommender.fleet_ms", "ms"},
	{"recommender.recommend_us_per_row", "us"},
	{"monitoring.summarize_us", "us"},
	{"monitoring.drift_us", "us"},
	{"features.extract_us", "us"},
	{"core.predict_us", "us"},
	{"core.predict_batch_us_per_row", "us"},
	{"core.train_s", "s"},
	{"core.row_batch_mismatch", "count"},
	{"nn.forward_gflops_row", "GFLOP/s"},
	{"nn.forward_gflops_batch", "GFLOP/s"},
	{"nn.train_gflops", "GFLOP/s"},
	{"optimizer.optimize_us", "us"},
	{"fngen.generate_ms", "ms"},
	{"harness.measure_ms", "ms"},
	{"loadgen.schedule_us", "us"},
	{"lambda.run_ms", "ms"},
	{"lambda.cold_starts", "count"},
	{"xrand.derive_ns", "ns"},
	{"xrand.seed_share_pct", "%"},
	{"dag.graph_ms", "ms"},
	{"dag.compare_ms", "ms"},
	{"client.lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"share.serve_pct", "%"},
	{"share.recommender_pct", "%"},
	{"share.monitoring_pct", "%"},
	{"share.features_pct", "%"},
	{"share.core_pct", "%"},
	{"share.optimizer_pct", "%"},
	{"share.fngen_pct", "%"},
	{"share.harness_pct", "%"},
	{"share.loadgen_pct", "%"},
	{"share.lambda_pct", "%"},
	{"share.xrand_pct", "%"},
	{"share.dag_pct", "%"},
	{"share.sizeless_pct", "%"},
	{"share.bench_pct", "%"},
	{"client.failed_ratio", "ratio"},
}

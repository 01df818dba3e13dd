// Package lambda simulates the function-instance lifecycle of a FaaS
// platform: warm pools, cold starts, keep-alive reclamation, and the
// account concurrency limit. Deployment drives runtime instances over a
// loadgen schedule and feeds every invocation through the monitoring
// wrapper — the simulated counterpart of deploying a monitored function
// and pointing a load driver at it (paper §3.3).
//
// Pool is the one warm-pool routing policy: Deployment, fleetsynth.Stream
// and ColdFraction (the DAG planner's cold-start probe) all route arrivals
// through it.
package lambda

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sizeless/internal/loadgen"
	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
	"sizeless/internal/runtime"
	"sizeless/internal/workload"
	"sizeless/internal/xrand"
)

// instance is one simulated function instance and the monitor wrapping it.
type instance struct {
	inst    *runtime.Instance
	monitor *monitoring.Monitor
}

// Deployment is one function deployed at one memory size.
type Deployment struct {
	env   *runtime.Env
	spec  *workload.Spec
	mem   platform.MemorySize
	store monitoring.Store
	rng   *xrand.Stream

	pool      Pool[instance]
	nextID    int
	wrapperMs float64
}

// Result summarizes one schedule run.
type Result struct {
	// Invocations served (cold + warm).
	Invocations int
	// ColdStarts is how many invocations created a new instance.
	ColdStarts int
	// Throttled counts arrivals rejected by the concurrency limit.
	Throttled int
	// MaxConcurrency is the peak simultaneous instance count.
	MaxConcurrency int
}

// ErrNoStore is returned when the deployment has no monitoring sink.
var ErrNoStore = errors.New("lambda: deployment needs a monitoring store")

// NewDeployment deploys spec at memory size mem. Every invocation's metric
// vector is appended to store. The rng stream must be unique per
// deployment for deterministic parallel experiments.
func NewDeployment(env *runtime.Env, spec *workload.Spec, mem platform.MemorySize, store monitoring.Store, rng *xrand.Stream) (*Deployment, error) {
	if store == nil {
		return nil, ErrNoStore
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("lambda: %w", err)
	}
	if env != nil && !env.Platform.ValidSize(mem) {
		return nil, fmt.Errorf("lambda: memory size %v not deployable on this platform", mem)
	}
	return &Deployment{
		env:   env,
		spec:  spec,
		mem:   mem,
		store: store,
		rng:   rng,
		// The wrapper-style monitor adds a small overhead to instance busy
		// time (polling metrics + DynamoDB write). It does NOT affect the
		// measured inner execution time (paper §3.2).
		wrapperMs: 2.0,
	}, nil
}

// Run processes the schedule in arrival order and returns aggregate
// statistics. Per-invocation data lands in the deployment's store.
func (d *Deployment) Run(schedule loadgen.Schedule) (Result, error) {
	arrivals := append(loadgen.Schedule(nil), schedule...)
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })

	var res Result
	cfg := d.env.Platform
	for _, t := range arrivals {
		i, warm := d.pool.Warm(t, cfg.KeepAlive)
		start := t
		if !warm {
			if cfg.ConcurrencyLimit > 0 && len(d.pool.entries) >= cfg.ConcurrencyLimit {
				res.Throttled++
				continue
			}
			in, err := d.spawn()
			if err != nil {
				return res, err
			}
			i = d.pool.Spawn(in)
			// Cold start delays the handler start; init CPU lands outside
			// the monitor's diff window because RunInit advances counters
			// before Record snapshots them.
			start = t + in.inst.RunInit()
		}

		in := d.pool.entries[i].val
		inv, err := in.monitor.Record(start, !warm, func() (time.Duration, monitoring.LagSample, error) {
			return in.inst.Invoke()
		})
		if err != nil {
			return res, fmt.Errorf("lambda: invocation at %v: %w", t, err)
		}
		d.pool.Hold(i, start+inv.Duration+time.Duration(d.wrapperMs*float64(time.Millisecond)))
		res.Invocations++
		if !warm {
			res.ColdStarts++
		}
		if n := len(d.pool.entries); n > res.MaxConcurrency {
			res.MaxConcurrency = n
		}
	}
	return res, nil
}

// spawn creates a fresh (cold) instance.
func (d *Deployment) spawn() (instance, error) {
	inst, err := runtime.NewInstance(d.env, d.spec, d.mem, d.rng.DeriveIndexed("instance", d.nextID))
	if err != nil {
		return instance{}, err
	}
	d.nextID++
	return instance{
		inst: inst,
		monitor: &monitoring.Monitor{
			FunctionID: d.spec.Name,
			Probe:      inst,
			Store:      d.store,
		},
	}, nil
}

// PoolSize returns the current number of live instances.
func (d *Deployment) PoolSize() int { return len(d.pool.entries) }

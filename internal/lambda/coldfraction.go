package lambda

import (
	"sort"
	"time"

	"sizeless/internal/loadgen"
)

// ColdFraction replays an arrival schedule through the warm pool with a
// fixed per-invocation service time and returns the fraction of arrivals
// that start cold. It is the pure cold-start-exposure probe: no init delay,
// no wrapper overhead, no metric synthesis, no concurrency limit and no
// randomness beyond the schedule itself, so identical inputs always yield
// the identical fraction.
//
// keepAlive <= 0 means instances are never reclaimed (only concurrency
// growth pays cold starts). An empty schedule returns 0.
func ColdFraction(sched loadgen.Schedule, service, keepAlive time.Duration) float64 {
	if len(sched) == 0 {
		return 0
	}
	arrivals := append(loadgen.Schedule(nil), sched...)
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })

	var pool Pool[struct{}]
	total, colds := 0, 0
	for _, t := range arrivals {
		if t < 0 {
			continue
		}
		total++
		i, warm := pool.Warm(t, keepAlive)
		if !warm {
			colds++
			i = pool.Spawn(struct{}{})
		}
		pool.Hold(i, t+service)
	}
	if total == 0 {
		return 0
	}
	return float64(colds) / float64(total)
}

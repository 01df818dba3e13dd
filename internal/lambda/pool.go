package lambda

import "time"

// Pool is a platform's warm pool. Instances idle for longer than the
// keep-alive window are reaped; an arrival goes to the most recently freed
// idle instance (Lambda routes to warm sandboxes LIFO, which lets idle
// instances age out); when every instance is busy the caller spawns a cold
// one. The caller decides how long each invocation holds its instance.
//
// An instance needs one timestamp, the time it becomes free: it was last
// used exactly when its previous invocation finished. The zero Pool is
// empty and ready to use.
type Pool[T any] struct {
	entries []poolEntry[T]
}

type poolEntry[T any] struct {
	free time.Duration
	val  T
}

// Warm reaps the instances idle for longer than keepAlive at time t, then
// returns the index of the most recently freed idle instance. Among equal
// free times the earliest-spawned instance wins, and reaping keeps spawn
// order. ok is false when every instance is busy (or the pool is empty).
// keepAlive <= 0 never reaps.
func (p *Pool[T]) Warm(t, keepAlive time.Duration) (i int, ok bool) {
	i = -1
	kept := p.entries[:0]
	for _, e := range p.entries {
		if keepAlive > 0 && t-e.free > keepAlive {
			continue
		}
		if e.free <= t && (i < 0 || e.free > kept[i].free) {
			i = len(kept)
		}
		kept = append(kept, e)
	}
	clear(p.entries[len(kept):]) // drop reaped values for the collector
	p.entries = kept
	return i, i >= 0
}

// Spawn appends a cold instance carrying v and returns its index. The
// caller holds it with Hold once it knows the invocation's end.
func (p *Pool[T]) Spawn(v T) int {
	p.entries = append(p.entries, poolEntry[T]{val: v})
	return len(p.entries) - 1
}

// Hold marks instance i busy until u, when it becomes idle again.
func (p *Pool[T]) Hold(i int, u time.Duration) { p.entries[i].free = u }

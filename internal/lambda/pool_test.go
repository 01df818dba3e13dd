package lambda

import (
	"slices"
	"testing"
	"time"
)

// TestPoolRouting pins the warm-pool policy every caller shares: reaping
// after keep-alive, LIFO routing with spawn-order ties, and cold spawns
// when every instance is busy.
func TestPoolRouting(t *testing.T) {
	const s = time.Second
	tests := []struct {
		name      string
		free      []time.Duration // instances in spawn order; value = spawn id
		at        time.Duration
		keepAlive time.Duration
		want      int   // spawn id routed to, -1 for a cold spawn
		kept      []int // spawn ids left in the pool after the arrival
	}{
		{
			name: "idle exactly keep-alive is kept",
			free: []time.Duration{0}, at: 10 * s, keepAlive: 10 * s,
			want: 0, kept: []int{0},
		},
		{
			name: "idle keep-alive plus 1ns is reaped",
			free: []time.Duration{0}, at: 10*s + 1, keepAlive: 10 * s,
			want: -1, kept: []int{1},
		},
		{
			name: "instance freed at the arrival is idle",
			free: []time.Duration{5 * s}, at: 5 * s, keepAlive: 10 * s,
			want: 0, kept: []int{0},
		},
		{
			name: "busy instance is never reaped",
			free: []time.Duration{100 * s, 0}, at: 50 * s, keepAlive: 10 * s,
			want: -1, kept: []int{0, 2},
		},
		{
			name: "most recently freed idle instance wins",
			free: []time.Duration{1 * s, 3 * s, 2 * s}, at: 4 * s, keepAlive: 10 * s,
			want: 1, kept: []int{0, 1, 2},
		},
		{
			name: "equal free times go to the earliest spawned",
			free: []time.Duration{1 * s, 2 * s, 2 * s}, at: 4 * s, keepAlive: 10 * s,
			want: 1, kept: []int{0, 1, 2},
		},
		{
			name: "reaping keeps spawn order",
			free: []time.Duration{5 * s, 0, 6 * s, 0, 5 * s}, at: 12 * s, keepAlive: 10 * s,
			want: 2, kept: []int{0, 2, 4},
		},
		{
			name: "zero keep-alive never reaps",
			free: []time.Duration{0, 1 * s}, at: time.Hour, keepAlive: 0,
			want: 1, kept: []int{0, 1},
		},
		{
			name: "negative keep-alive never reaps",
			free: []time.Duration{0}, at: time.Hour, keepAlive: -s,
			want: 0, kept: []int{0},
		},
		{
			name: "all busy grows the pool",
			free: []time.Duration{5 * s, 6 * s}, at: 1 * s, keepAlive: 10 * s,
			want: -1, kept: []int{0, 1, 2},
		},
		{
			name: "empty pool spawns", keepAlive: 10 * s,
			want: -1, kept: []int{0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var p Pool[int]
			for id, f := range tt.free {
				p.Hold(p.Spawn(id), f)
			}
			got := -1
			i, ok := p.Warm(tt.at, tt.keepAlive)
			if ok {
				got = p.entries[i].val
			} else if j := p.Spawn(len(tt.free)); j != len(p.entries)-1 {
				t.Fatalf("cold spawn landed at %d, want the end of a %d-entry pool", j, len(p.entries))
			}
			if got != tt.want {
				t.Errorf("routed to %d, want %d", got, tt.want)
			}
			var kept []int
			for _, e := range p.entries {
				kept = append(kept, e.val)
			}
			if !slices.Equal(kept, tt.kept) {
				t.Errorf("pool = %v, want %v", kept, tt.kept)
			}
		})
	}
}

package lambda

import (
	"testing"
	"time"

	"sizeless/internal/loadgen"
)

func TestColdFractionEmpty(t *testing.T) {
	if got := ColdFraction(nil, time.Millisecond, time.Minute); got != 0 {
		t.Fatalf("empty schedule cold fraction = %v, want 0", got)
	}
}

func TestColdFractionSerialTraffic(t *testing.T) {
	// Arrivals spaced wider than the service time but inside keep-alive:
	// only the first invocation is cold.
	var sched loadgen.Schedule
	for i := 0; i < 10; i++ {
		sched = append(sched, time.Duration(i)*time.Second)
	}
	got := ColdFraction(sched, 100*time.Millisecond, time.Minute)
	if got != 0.1 {
		t.Fatalf("serial cold fraction = %v, want 0.1 (first arrival only)", got)
	}
}

func TestColdFractionConcurrencyGrowth(t *testing.T) {
	// Four simultaneous arrivals: no instance can be reused, all cold.
	sched := loadgen.Schedule{0, 0, 0, 0}
	if got := ColdFraction(sched, time.Second, time.Minute); got != 1 {
		t.Fatalf("burst cold fraction = %v, want 1", got)
	}
}

func TestColdFractionKeepAliveExpiry(t *testing.T) {
	// Two arrivals separated by more than the keep-alive window: the pool
	// is reaped in between, so both are cold. With an unbounded keep-alive
	// the second reuses the warm instance.
	sched := loadgen.Schedule{0, 30 * time.Second}
	if got := ColdFraction(sched, 50*time.Millisecond, 10*time.Second); got != 1 {
		t.Fatalf("expired pool cold fraction = %v, want 1", got)
	}
	if got := ColdFraction(sched, 50*time.Millisecond, 0); got != 0.5 {
		t.Fatalf("unreaped pool cold fraction = %v, want 0.5", got)
	}
}

func TestColdFractionSortsInput(t *testing.T) {
	// The input schedule need not be ordered; the replay must not mutate
	// the caller's slice.
	sched := loadgen.Schedule{2 * time.Second, 0, time.Second}
	orig := append(loadgen.Schedule(nil), sched...)
	got := ColdFraction(sched, 10*time.Millisecond, time.Minute)
	if got != 1.0/3 {
		t.Fatalf("cold fraction = %v, want 1/3", got)
	}
	for i := range sched {
		if sched[i] != orig[i] {
			t.Fatal("ColdFraction mutated its input schedule")
		}
	}
}

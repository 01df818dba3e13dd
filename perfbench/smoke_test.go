package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestDeclaredMetrics holds the metric lists to BENCHMARK.json.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(label string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json declares %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program reports %s [%s], BENCHMARK.json declares %s [%s]",
					label, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, decl.EndToEnd)
	same("per_layer", perLayer, decl.PerLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that the correctness checks pass and every declared metric is printed
// with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; about two minutes")
	}
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			r := newRun(name, 7, time.Second, trace, t.TempDir(), &out)
			res, err := execute(context.Background(), r, fn)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for _, m := range want {
				if !bytes.Contains(out.Bytes(), []byte(m.name)) || res.Metrics[m.name].Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s [%s] not printed", name, trace, m.name, m.unit)
				}
			}
		}
	}
}

func TestMixOrder(t *testing.T) {
	for _, tc := range []struct {
		rates [nKinds]float64
		want  []int
	}{
		{[nKinds]float64{20, 0, 0}, []int{kIngest}},
		{[nKinds]float64{5, 10, 5}, []int{kRecommend, kIngest, kFleet, kRecommend}},
	} {
		if got := mixOrder(tc.rates); !slices.Equal(got, tc.want) {
			t.Errorf("mixOrder(%v) = %v, want %v", tc.rates, got, tc.want)
		}
	}
}

package core

import (
	"context"
	"testing"

	"sizeless/internal/monitoring"
	"sizeless/internal/platform"
)

// TestPredictBatchMatchesPredict pins the batched fleet path to the
// per-sample one: for batch sizes around the kernels' 4-row blocks and the
// chunk boundary, and worker counts from serial to absurdly oversubscribed
// (the clamp makes the latter equivalent to the chunk count), every
// per-size time must equal Predict's bit for bit.
func TestPredictBatchMatchesPredict(t *testing.T) {
	ds := testDataset(t)
	cfg := smallConfig(platform.Mem256)
	cfg.Epochs = 60
	model, err := Train(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]monitoring.Summary, 0, len(ds.Rows))
	for _, row := range ds.Rows {
		all = append(all, row.Summaries[platform.Mem256])
	}
	want := make([]map[platform.MemorySize]float64, len(all))
	for i, s := range all {
		if want[i], err = model.Predict(s); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33} {
		if n > len(all) {
			t.Fatalf("test dataset has only %d rows, need %d", len(all), n)
		}
		for _, workers := range []int{0, 1, 1000} {
			got, err := model.PredictBatch(ctx, all[:n], workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if len(got) != n {
				t.Fatalf("n=%d workers=%d: %d results", n, workers, len(got))
			}
			for i, times := range got {
				if len(times) != len(want[i]) {
					t.Fatalf("n=%d sample %d: %d sizes, want %d", n, i, len(times), len(want[i]))
				}
				for mem, v := range times {
					if w := want[i][mem]; v != w {
						t.Fatalf("n=%d workers=%d sample %d size %v: batch %v vs Predict %v",
							n, workers, i, mem, v, w)
					}
				}
			}
		}
	}
}

package nn

import (
	"context"
	"testing"
)

// TestForwardBatchMatchesPredict asserts the batched forward entry point
// scores every row bit-identically to Predict (a one-row batch) on a
// trained network, for every batch size around the kernels' 4-row blocks
// and at every position in the batch.
func TestForwardBatchMatchesPredict(t *testing.T) {
	x, y := makeLinearData(50, 6, 3, 41)
	net, err := New(Config{
		Inputs: 6, Outputs: 3, Hidden: []int{20, 20},
		Optimizer: Adam, Loss: MSE, Epochs: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(x))
	for s := range x {
		if want[s], err = net.Predict(x[s]); err != nil {
			t.Fatal(err)
		}
	}
	fs := NewForwardScratch()
	for _, nb := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, len(x)} {
		// Offset each batch so a sample lands at different positions
		// across batch sizes; the full-length batch reuses the warm
		// scratch at its largest shape.
		off := nb % 5
		xs := x[off : off+nb]
		dst := make([][]float64, nb)
		for i := range dst {
			dst[i] = make([]float64, 3)
		}
		if err := net.ForwardBatch(xs, dst, fs); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			for j := range dst[i] {
				if dst[i][j] != want[off+i][j] {
					t.Fatalf("batch %d row %d out %d: batch %v vs Predict %v", nb, i, j, dst[i][j], want[off+i][j])
				}
			}
		}
	}
}

// TestForwardBatchNilScratch covers the pooled-scratch path chunked fleet
// recomputes use.
func TestForwardBatchNilScratch(t *testing.T) {
	x, _ := makeLinearData(9, 4, 2, 7)
	net, err := New(Config{Inputs: 4, Outputs: 2, Hidden: []int{8}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([][]float64, len(x))
	for i := range dst {
		dst[i] = make([]float64, 2)
	}
	if err := net.ForwardBatch(x, dst, nil); err != nil {
		t.Fatal(err)
	}
	want, err := net.Predict(x[4])
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if dst[4][j] != want[j] {
			t.Fatalf("out %d: batch %v vs Predict %v", j, dst[4][j], want[j])
		}
	}
}

// TestForwardBatchScratchSurvivesShapeChange reuses one scratch across
// networks of different shapes — the recommender's pool does exactly this
// after a model swap.
func TestForwardBatchScratchSurvivesShapeChange(t *testing.T) {
	fs := NewForwardScratch()
	for _, shape := range []struct{ in, out, hid int }{{3, 2, 8}, {7, 4, 16}, {2, 1, 4}} {
		x, _ := makeLinearData(11, shape.in, shape.out, int64(shape.in))
		net, err := New(Config{Inputs: shape.in, Outputs: shape.out, Hidden: []int{shape.hid}, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		dst := make([][]float64, len(x))
		for i := range dst {
			dst[i] = make([]float64, shape.out)
		}
		if err := net.ForwardBatch(x, dst, fs); err != nil {
			t.Fatal(err)
		}
		want, err := net.Predict(x[0])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if dst[0][j] != want[j] {
				t.Fatalf("shape %v out %d: batch %v vs Predict %v", shape, j, dst[0][j], want[j])
			}
		}
	}
}

// TestForwardBatchValidation pins the error contract: row-count and width
// mismatches fail before any buffer is touched, and an empty batch is a
// no-op.
func TestForwardBatchValidation(t *testing.T) {
	net, err := New(Config{Inputs: 3, Outputs: 2, Hidden: []int{4}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	good := [][]float64{{1, 2, 3}}
	if err := net.ForwardBatch(good, make([][]float64, 2), nil); err == nil {
		t.Fatal("dst row-count mismatch not rejected")
	}
	if err := net.ForwardBatch([][]float64{{1, 2}}, [][]float64{make([]float64, 2)}, nil); err == nil {
		t.Fatal("short input row not rejected")
	}
	if err := net.ForwardBatch(good, [][]float64{make([]float64, 3)}, nil); err == nil {
		t.Fatal("wrong dst width not rejected")
	}
	if err := net.ForwardBatch(nil, nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

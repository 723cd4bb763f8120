package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mouse/internal/array"
	"mouse/internal/workload"
)

// TestComputeBatchShapes: the experiment covers every hot workload,
// verifies equivalence inline (zero mismatches), and scales the batch
// to the requested lane count. Small lane count keeps it cheap in the
// regular suite; the full-width throughput gate is the root package's
// TestBatchThroughputRegression.
func TestComputeBatchShapes(t *testing.T) {
	const lanes = 4
	rows, err := ComputeBatch(lanes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.HotBatches()) {
		t.Fatalf("%d rows, want one per hot workload", len(rows))
	}
	for _, r := range rows {
		hb, err := workload.HotBatchByName(r.Workload)
		if err != nil {
			t.Errorf("row names unknown workload %q", r.Workload)
			continue
		}
		if r.Lanes != lanes || r.SamplesPerBatch != lanes*hb.LaneWidth {
			t.Errorf("%s: lanes %d batch %d, want %d and %d", r.Workload, r.Lanes, r.SamplesPerBatch, lanes, lanes*hb.LaneWidth)
		}
		if r.Mismatches != 0 {
			t.Errorf("%s: %d batched-vs-sequential mismatches", r.Workload, r.Mismatches)
		}
	}
	if _, err := ComputeBatch(0, 0); err == nil {
		t.Error("accepted 0 lanes")
	}
	if _, err := ComputeBatch(array.MaxLanes+1, 0); err == nil {
		t.Error("accepted too many lanes")
	}
}

// TestPrintBatchCheckedShape: the table renders the rows it is given —
// the lane count in the title and the mismatch column per workload.
func TestPrintBatchCheckedShape(t *testing.T) {
	rows, err := ComputeBatch(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := PrintBatchChecked(&buf, 2, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"2 bit-slice lanes", "mismatches", "svm-adult", "bnn-hidden16"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestBatchNormalizeIsDeterministic: two batch reports from different
// parallelism normalize to deep-equal.
func TestBatchNormalizeIsDeterministic(t *testing.T) {
	a, err := BuildReport("batch", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildReport("batch", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Normalize()
	b.Normalize()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("normalized batch reports differ: %+v vs %+v", a, b)
	}
}

// TestBatchStress32Workers hammers the batch machinery from a wide
// worker pool — 32 concurrent jobs, each with its own engine pair over
// the shared (read-only) trained models — so `go test -race` covers the
// compile-once caches and the arena reuse under real concurrency.
func TestBatchStress32Workers(t *testing.T) {
	hbs := workload.HotBatches()
	_, err := Jobs(32, 32, func(i int) (struct{}, error) {
		hb := hbs[i%len(hbs)]
		row, err := computeBatchRow(hb, 1+i%array.MaxLanes)
		if err != nil {
			return struct{}{}, err
		}
		if row.Mismatches != 0 {
			t.Errorf("job %d (%s, %d lanes): %d mismatches", i, hb.Name, row.Lanes, row.Mismatches)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

package bench

import (
	"strings"
	"testing"

	"mouse/internal/workload"
)

// TestComputeSegmentShapes: the experiment covers every benchmark,
// verifies stepping-vs-segment equivalence inline (zero mismatches),
// and sweeps the full Fig. 9 power grid. Correctness runs in the
// regular suite; the speedup gate is the root package's
// TestSegmentThroughputRegression.
func TestComputeSegmentShapes(t *testing.T) {
	rows, err := ComputeSegment(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.Benchmarks()) {
		t.Fatalf("%d rows, want one per benchmark", len(rows))
	}
	for _, r := range rows {
		if r.Powers != len(Powers()) {
			t.Errorf("%s: swept %d powers, want %d", r.Workload, r.Powers, len(Powers()))
		}
		if r.Mismatches != 0 {
			t.Errorf("%s: %d grid points diverge between engines", r.Workload, r.Mismatches)
		}
		if r.Restarts == 0 {
			t.Errorf("%s: zero restarts across the grid — the sweep did not exercise intermittency", r.Workload)
		}
	}
}

// TestPrintSegmentCheckedDeterministic: the registry's table view must
// be byte-identical across runs and parallelism.
func TestPrintSegmentCheckedDeterministic(t *testing.T) {
	render := func(workers int) string {
		rows, err := ComputeSegment(workers)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := PrintSegmentChecked(&sb, rows); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(1), render(0)
	if !strings.Contains(a, "mismatches") {
		t.Errorf("table missing the mismatch column:\n%s", a)
	}
	if a != b {
		t.Errorf("table not deterministic across parallelism:\n--- workers=1\n%s\n--- workers=auto\n%s", a, b)
	}
}

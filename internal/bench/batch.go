package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mouse/internal/array"
	"mouse/internal/workload"
)

// The batch equivalence experiment: replay the hot inference workloads
// (internal/workload's compile-once batch recipes) through the
// bit-sliced engine at a chosen lane count and check every batched
// label against the sequential controller path. Its host throughput is
// measured by `go test -bench HotBatch` in the root package.

// BatchRow is one hot workload's batched-vs-sequential comparison.
type BatchRow struct {
	// Workload names the internal/workload hot-batch entry.
	Workload string
	// Lanes is the batch size in units of the mapping's column batch
	// (1–64); SamplesPerBatch is Lanes times that column batch. The
	// SVM fills Lanes bit-slice lanes; the BNN, whose engine places
	// samples lane-major, fills Lanes columns of all 64 lanes.
	Lanes           int
	SamplesPerBatch int
	// Mismatches counts batched labels that disagreed with the
	// sequential path (always 0 on a correct engine).
	Mismatches int
}

// ComputeBatch checks every hot workload at the given lane count.
// Workloads run as independent jobs on the sweep pool. The experiment
// compares labels, not simulated energy, so it takes no observer.
func ComputeBatch(lanes, workers int) ([]BatchRow, error) {
	if lanes < 1 || lanes > array.MaxLanes {
		return nil, fmt.Errorf("bench: batch lanes %d outside [1, %d]", lanes, array.MaxLanes)
	}
	hbs := workload.HotBatches()
	return Jobs(workers, len(hbs), func(i int) (BatchRow, error) {
		return computeBatchRow(hbs[i], lanes)
	})
}

func computeBatchRow(hb workload.HotBatch, lanes int) (BatchRow, error) {
	row := BatchRow{
		Workload:        hb.Name,
		Lanes:           lanes,
		SamplesPerBatch: lanes * hb.LaneWidth,
	}
	batched, err := hb.NewBatched()
	if err != nil {
		return row, fmt.Errorf("bench: %s: %w", hb.Name, err)
	}
	sequential, err := hb.NewSequential()
	if err != nil {
		return row, fmt.Errorf("bench: %s: %w", hb.Name, err)
	}
	samples := hb.Samples(row.SamplesPerBatch)
	if len(samples) != row.SamplesPerBatch {
		return row, fmt.Errorf("bench: %s: sample pool came up short", hb.Name)
	}
	want, err := sequential(samples)
	if err != nil {
		return row, fmt.Errorf("bench: %s sequential: %w", hb.Name, err)
	}
	got, err := batched(samples)
	if err != nil {
		return row, fmt.Errorf("bench: %s batched: %w", hb.Name, err)
	}
	for i := range want {
		if got[i] != want[i] {
			row.Mismatches++
		}
	}
	return row, nil
}

// PrintBatchChecked renders the experiment's rows, computed at lanes
// bit-slice lanes: every hot workload's batched labels against
// sequential.
func PrintBatchChecked(w io.Writer, lanes int, rows []BatchRow) error {
	fmt.Fprintf(w, "Batch inference equivalence — %d bit-slice lanes (timings: go test -bench HotBatch)\n", lanes)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tlanes\tsamples/batch\tmismatches")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Workload, r.Lanes, r.SamplesPerBatch, r.Mismatches)
	}
	return tw.Flush()
}

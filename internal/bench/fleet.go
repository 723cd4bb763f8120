package bench

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"mouse/internal/fleet"
	"mouse/internal/workload"
)

// The fleet serving experiment: stand up a small inference fleet
// (internal/fleet) per hot workload and power mode, drive it with the
// open-loop load generator, and record the outcome counters and label
// agreement under harvested vs continuous power. Request latencies are
// host wall clock; mouseload and the perfbench serving workloads
// measure them.

// FleetRow is one (workload, power mode) serving run.
type FleetRow struct {
	// Workload names the internal/workload hot-batch entry served.
	Workload string
	// Power is the fleet's power mode ("continuous" or "harvested").
	Power string
	// Devices, Requests, SamplesPerRequest fix the load shape.
	Devices           int
	Requests          int
	SamplesPerRequest int
	// OK, Rejected, Errors partition the requests; the admission queue
	// is sized past the offered load, so Rejected and Errors are 0 on a
	// correct fleet.
	OK       int
	Rejected int
	Errors   int
	// Mismatches counts served labels that disagreed with the offline
	// batch classifier (always 0 on a correct fleet).
	Mismatches int
}

// The fixed load shape: small enough to finish in well under a second
// per combination, deep enough that batching is exercised. In harvested
// mode an 8-sample svm-adult request costs eight 0.50 µJ passes, six
// recharges of a full 0.66 µJ window; up to 64 bnn-hidden16 samples
// cost one 0.33 µJ pass.
const (
	fleetBenchDevices  = 2
	fleetBenchRequests = 24
	fleetBenchBatch    = 8
	fleetBenchQueue    = 32 // > fleetBenchRequests: no deterministic-run rejections
	fleetBenchLinger   = 200 * time.Microsecond
	fleetBenchHarvestW = 0.05
)

// ComputeFleet serves every hot workload under both power modes, one
// fleet per combination, as independent jobs on the sweep pool. The
// experiment measures serving behaviour, not simulated device energy,
// so it takes no observer.
func ComputeFleet(workers int) ([]FleetRow, error) {
	type combo struct {
		hb   workload.HotBatch
		mode fleet.PowerMode
	}
	var combos []combo
	for _, hb := range workload.HotBatches() {
		for _, mode := range []fleet.PowerMode{fleet.Continuous, fleet.Harvested} {
			combos = append(combos, combo{hb, mode})
		}
	}
	return Jobs(workers, len(combos), func(i int) (FleetRow, error) {
		return computeFleetRow(combos[i].hb, combos[i].mode)
	})
}

func computeFleetRow(hb workload.HotBatch, mode fleet.PowerMode) (FleetRow, error) {
	row := FleetRow{
		Workload:          hb.Name,
		Power:             string(mode),
		Devices:           fleetBenchDevices,
		Requests:          fleetBenchRequests,
		SamplesPerRequest: fleetBenchBatch,
	}
	cfg := fleet.DefaultConfig()
	cfg.Devices = fleetBenchDevices
	cfg.QueueDepth = fleetBenchQueue
	cfg.BatchLinger = fleetBenchLinger
	cfg.Mode = mode
	cfg.HarvestW = fleetBenchHarvestW
	cfg.Workloads = []string{hb.Name}
	f, err := fleet.New(cfg)
	if err != nil {
		return row, fmt.Errorf("bench: %s/%s: %w", hb.Name, mode, err)
	}
	defer f.Stop()

	// Golden labels from the offline batch classifier, chunk by chunk:
	// lanes are independent, so the fleet's coalesced batches must agree
	// bit for bit.
	offline, err := hb.NewBatched()
	if err != nil {
		return row, fmt.Errorf("bench: %s: %w", hb.Name, err)
	}
	samples := hb.Samples(fleetBenchRequests * fleetBenchBatch)
	expected := make([]int, 0, len(samples))
	for i := 0; i < fleetBenchRequests; i++ {
		preds, err := offline(samples[i*fleetBenchBatch : (i+1)*fleetBenchBatch])
		if err != nil {
			return row, fmt.Errorf("bench: %s offline: %w", hb.Name, err)
		}
		expected = append(expected, preds...)
	}

	rep, err := fleet.RunLoad(
		fleet.LoadConfig{Requests: fleetBenchRequests, BatchSize: fleetBenchBatch, Expected: expected},
		samples,
		func(chunk [][]int) ([]int, error) { return f.Infer(context.Background(), hb.Name, chunk) },
	)
	if err != nil {
		return row, fmt.Errorf("bench: %s/%s load: %w", hb.Name, mode, err)
	}
	row.OK = rep.OK
	row.Rejected = rep.Rejected
	row.Errors = rep.Errors
	row.Mismatches = rep.Mismatches
	return row, nil
}

// PrintFleetChecked renders the experiment's rows: every request
// served, none rejected or wrong, under both power modes.
func PrintFleetChecked(w io.Writer, rows []FleetRow) error {
	fmt.Fprintf(w, "Fleet serving equivalence — %d devices, %d requests x %d samples (latencies: mouseload or perfbench)\n",
		fleetBenchDevices, fleetBenchRequests, fleetBenchBatch)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tpower\tok\trejected\terrors\tmismatches")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\n",
			r.Workload, r.Power, r.OK, r.Rejected, r.Errors, r.Mismatches)
	}
	return tw.Flush()
}

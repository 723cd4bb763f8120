package bench

import (
	"strings"
	"testing"
)

// TestComputeFleetDeterministicOutcome: the serving experiment's
// deterministic columns must come out clean — every request OK, none
// rejected, zero mismatches — for both workloads under both power
// modes, in registry row order.
func TestComputeFleetDeterministicOutcome(t *testing.T) {
	rows, err := ComputeFleet(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ wl, power string }{
		{"svm-adult", "continuous"},
		{"svm-adult", "harvested"},
		{"bnn-hidden16", "continuous"},
		{"bnn-hidden16", "harvested"},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Workload != want[i].wl || r.Power != want[i].power {
			t.Errorf("row %d is %s/%s, want %s/%s", i, r.Workload, r.Power, want[i].wl, want[i].power)
		}
		if r.OK != fleetBenchRequests || r.Rejected != 0 || r.Errors != 0 || r.Mismatches != 0 {
			t.Errorf("%s/%s: ok %d rejected %d errors %d mismatches %d, want %d/0/0/0",
				r.Workload, r.Power, r.OK, r.Rejected, r.Errors, r.Mismatches, fleetBenchRequests)
		}
	}
}

// TestPrintFleetCheckedShape: the registry table view carries the
// outcome and mismatch counters of every row.
func TestPrintFleetCheckedShape(t *testing.T) {
	rows, err := ComputeFleet(0)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := PrintFleetChecked(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, wantSub := range []string{"svm-adult", "bnn-hidden16", "continuous", "harvested", "rejected", "mismatches"} {
		if !strings.Contains(out, wantSub) {
			t.Errorf("table missing %q:\n%s", wantSub, out)
		}
	}
}

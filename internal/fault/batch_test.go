package fault

import (
	"testing"

	"mouse/internal/mtj"
)

// TestTinySVMBatchCrashEquivalence is the batched intermittency gate:
// the bit-sliced fast path must match every lane's golden continuous
// run, and every lane's scalar fallback must be crash-equivalent at
// every exhaustively-swept injection point with at most one replayed
// instruction per outage.
func TestTinySVMBatchCrashEquivalence(t *testing.T) {
	w, err := TinySVMBatch(mtj.ModernSTT())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SweepBatch(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.BatchMismatches {
		t.Error(m)
	}
	if len(rep.LaneReports) != w.Lanes {
		t.Fatalf("%d lane reports, want %d", len(rep.LaneReports), w.Lanes)
	}
	for lane, lr := range rep.LaneReports {
		if !lr.AllEquivalent() {
			for i, v := range lr.Failures() {
				if i == 4 {
					t.Errorf("lane %d: ... and %d more failures", lane, len(lr.Failures())-i)
					break
				}
				t.Errorf("lane %d: point (%d, %.2f): %s", lane, v.Index, v.Frac, v.Mismatch)
			}
		}
		if lr.MaxReplays > 1 {
			t.Errorf("lane %d: %d replays for one outage (claim: at most one)", lane, lr.MaxReplays)
		}
	}
	if !rep.AllEquivalent() {
		t.Error("batched sweep not fully crash-equivalent")
	}
	if rep.MaxReplays() > 1 {
		t.Errorf("max replays %d across lanes", rep.MaxReplays())
	}
}

// TestTinySVMBatchLanesDiffer guards the fixture: the four lanes feed
// distinct inputs, so at least two lanes must reach distinct final
// states — otherwise the per-lane differential checks prove nothing.
func TestTinySVMBatchLanesDiffer(t *testing.T) {
	w, err := TinySVMBatch(mtj.ModernSTT())
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*snapshot
	for lane := 0; lane < w.Lanes; lane++ {
		g, err := RunGolden(w.Lane(lane), LayerMachine)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, g.snap)
	}
	for _, s := range snaps[1:] {
		if snaps[0].diffState(s) != "" {
			return
		}
	}
	t.Error("all lanes converged to one state; fixture inputs are not distinct")
}

// TestSweepBatchRejectsBadLanes: lane bounds are validated.
func TestSweepBatchRejectsBadLanes(t *testing.T) {
	w, err := TinySVMBatch(mtj.ModernSTT())
	if err != nil {
		t.Fatal(err)
	}
	w.Lanes = 0
	if _, err := SweepBatch(w, Options{}); err == nil {
		t.Error("accepted 0 lanes")
	}
	w.Lanes = 65
	if _, err := SweepBatch(w, Options{}); err == nil {
		t.Error("accepted 65 lanes")
	}
}

package sim

import (
	"errors"
	"testing"
	"time"

	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// TestMaxParallelColumnsWorkloadCompletes: a workload sized to half the
// window by MaxParallelColumns completes under the dynamic engine.
func TestMaxParallelColumnsWorkloadCompletes(t *testing.T) {
	for _, cfg := range mtj.Configs() {
		m := energy.NewModel(cfg)
		cols := MaxParallelColumns(m, 2.0)
		ops := []energy.Op{{Kind: isa.KindAct, ActCols: cols}}
		for i := 0; i < 50; i++ {
			ops = append(ops,
				energy.Op{Kind: isa.KindPreset, ActivePairs: cols},
				energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: cols})
		}
		r := NewRunner(m)
		if _, err := r.Run(StreamOf(ops), harvester(cfg, 60e-6)); err != nil {
			t.Fatalf("%s: sized workload failed dynamically: %v", cfg.Name, err)
		}
	}
}

func TestMaxParallelColumns(t *testing.T) {
	for _, cfg := range mtj.Configs() {
		m := energy.NewModel(cfg)
		n := MaxParallelColumns(m, 1.0)
		if n <= 0 {
			t.Fatalf("%s: no parallelism possible", cfg.Name)
		}
		half := MaxParallelColumns(m, 2.0)
		if half >= n {
			t.Errorf("%s: headroom did not shrink the budget (%d vs %d)", cfg.Name, half, n)
		}
	}
	// Projected technologies afford far more parallelism than modern.
	modern := MaxParallelColumns(energy.NewModel(mtj.ModernSTT()), 1.0)
	projected := MaxParallelColumns(energy.NewModel(mtj.ProjectedSTT()), 1.0)
	if projected <= modern {
		t.Errorf("projected budget %d not above modern %d", projected, modern)
	}
}

// nandOps is ModernSTT's checkpoint-interval workload: an ACT over
// 8192 columns, then NAND2s over 8192 pairs, n ops in all. One discharge
// window at 60 µW holds about 1229 of them.
func nandOps(n int) []energy.Op {
	ops := make([]energy.Op, n)
	for i := range ops {
		ops[i] = energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 8192}
	}
	ops[0] = energy.Op{Kind: isa.KindAct, ActCols: 8192}
	return ops
}

// withDeadline runs f and fails the test if it has not returned within
// d, so a livelock fails the test instead of timing out the package.
func withDeadline(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v: livelock", d)
	}
}

func TestCheckpointIntervalTradeoff(t *testing.T) {
	// Section IV-D: rarer checkpoints mean less backup energy but more
	// dead (re-performed) work.
	cfg := mtj.ModernSTT()
	m := energy.NewModel(cfg)
	r := NewRunner(m)
	var prevBackup, prevDead float64
	for i, interval := range []int{1, 8, 64} {
		res, err := r.RunWithCheckpointInterval(StreamOf(nandOps(3000)), harvester(cfg, 60e-6), interval)
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		if !res.Completed || res.Instructions != 3000 {
			t.Fatalf("interval %d incomplete: %+v", interval, res.Breakdown)
		}
		if i > 0 {
			if res.BackupEnergy >= prevBackup {
				t.Errorf("interval %d: backup energy %.3g did not drop (was %.3g)", interval, res.BackupEnergy, prevBackup)
			}
			if res.DeadEnergy <= prevDead {
				t.Errorf("interval %d: dead energy %.3g did not grow (was %.3g)", interval, res.DeadEnergy, prevDead)
			}
		}
		prevBackup, prevDead = res.BackupEnergy, res.DeadEnergy
	}
}

// TestCheckpointIntervalBeyondWindow: a region longer than one
// discharge window can never commit, so the run must stop with
// ErrNonTermination instead of replaying the region forever.
func TestCheckpointIntervalBeyondWindow(t *testing.T) {
	cfg := mtj.ModernSTT()
	r := NewRunner(energy.NewModel(cfg))
	for _, interval := range []int{1300, 2000} {
		var res Result
		var err error
		withDeadline(t, 10*time.Second, func() {
			res, err = r.RunWithCheckpointInterval(StreamOf(nandOps(3000)), harvester(cfg, 60e-6), interval)
		})
		if !errors.Is(err, ErrNonTermination) {
			t.Errorf("interval %d: got %v, want ErrNonTermination", interval, err)
		}
		if res.Completed {
			t.Errorf("interval %d: aborted run marked completed", interval)
		}
	}
}

func TestCheckpointIntervalValidates(t *testing.T) {
	r := NewRunner(energy.NewModel(mtj.ModernSTT()))
	if _, err := r.RunWithCheckpointInterval(StreamOf(nil), nil, 0); err == nil {
		t.Fatalf("interval 0 accepted")
	}
}

// TestBadCheckpointInterval: interval < 1 fails typed.
func TestBadCheckpointInterval(t *testing.T) {
	cfg := mtj.ModernSTT()
	r := NewRunner(energy.NewModel(cfg))
	for _, interval := range []int{0, -1, -100} {
		_, err := r.RunWithCheckpointInterval(StreamOf(opsFixture(5)), harvester(cfg, 60e-6), interval)
		if !errors.Is(err, ErrBadInterval) {
			t.Fatalf("interval %d: got %v, want ErrBadInterval", interval, err)
		}
	}
}

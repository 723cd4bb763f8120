package sim

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
)

// randomOps builds a deterministic pseudo-random operation stream: a
// plausible mix of activations, presets, gates, and row transfers with
// varying activity, the kind of traffic any compiled program produces.
func randomOps(rng *rand.Rand, n int) []energy.Op {
	gates := []mtj.GateKind{mtj.NAND2, mtj.MAJ3, mtj.AND2}
	ops := make([]energy.Op, 0, n+1)
	ops = append(ops, energy.Op{Kind: isa.KindAct, ActCols: 1 + rng.Intn(2048)})
	for len(ops) < n {
		switch rng.Intn(6) {
		case 0:
			ops = append(ops, energy.Op{Kind: isa.KindAct, ActCols: 1 + rng.Intn(2048)})
		case 1:
			ops = append(ops, energy.Op{Kind: isa.KindPreset, ActivePairs: 1 + rng.Intn(2048)})
		case 2, 3:
			ops = append(ops, energy.Op{Kind: isa.KindLogic,
				Gate: gates[rng.Intn(len(gates))], ActivePairs: 1 + rng.Intn(2048)})
		case 4:
			ops = append(ops, energy.Op{Kind: isa.KindRead})
		case 5:
			ops = append(ops, energy.Op{Kind: isa.KindWrite})
		}
	}
	return ops
}

// TestEnergyConservationProperty checks the first-law invariant of the
// intermittent engine: the energy a run accounts for across
// Compute+Backup+Dead+Restore can never exceed what the source
// harvested plus what the buffer initially held (here: nothing — the
// harvester starts empty). This must hold for every randomized stream,
// configuration, and power level, including runs that abort.
func TestEnergyConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfgs := mtj.Configs()
	for trial := 0; trial < 30; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		watts := 40e-6 * (1 + rng.Float64()*100) // 40 µW – 4 mW
		ops := randomOps(rng, 200+rng.Intn(1500))
		r := NewRunner(energy.NewModel(cfg))
		h := power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)

		res, err := r.Run(&SliceStream{Ops: ops}, h)
		if err != nil && !errors.Is(err, ErrNonTermination) {
			t.Fatalf("trial %d (%s, %.3g W): %v", trial, cfg.Name, watts, err)
		}
		harvested := watts * h.Now()
		consumed := res.TotalEnergy()
		if consumed > harvested*(1+1e-9)+1e-15 {
			t.Errorf("trial %d (%s, %.3g W): accounted %.6g J exceeds harvested %.6g J",
				trial, cfg.Name, watts, consumed, harvested)
		}
		if res.Replays > res.Restarts {
			t.Errorf("trial %d (%s, %.3g W): %d replays exceed %d restarts",
				trial, cfg.Name, watts, res.Replays, res.Restarts)
		}
		if err == nil && !res.Completed {
			t.Errorf("trial %d: error-free run not completed", trial)
		}
	}
}

// TestEnergyConservationCheckpointed extends the conservation invariant
// to checkpoint intervals, whose rollback-replay accounting is easy to
// get wrong. The buffer is a sixteenth of ModernSTT's, so one discharge
// window holds a few hundred of these ops: every run sees outages, and
// the longer intervals exceed one window, so those runs must stop with
// ErrNonTermination rather than replay forever. Every run keeps at most
// interval replays per outage.
func TestEnergyConservationCheckpointed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := mtj.ModernSTT()
	for _, interval := range []int{1, 8, 64, 1300, 4096} {
		watts := 60e-6
		ops := randomOps(rng, 600)
		r := NewRunner(energy.NewModel(cfg))
		h := power.NewHarvester(power.Constant{W: watts}, cfg.CapC/16, cfg.CapVMin, cfg.CapVMax)
		var res Result
		var err error
		withDeadline(t, 10*time.Second, func() {
			res, err = r.RunWithCheckpointInterval(&SliceStream{Ops: ops}, h, interval)
		})
		if err != nil && !errors.Is(err, ErrNonTermination) {
			t.Fatalf("interval %d: %v", interval, err)
		}
		if res.Restarts == 0 {
			t.Errorf("interval %d: no outages, so nothing was replayed", interval)
		}
		if err == nil && (!res.Completed || res.Instructions != uint64(len(ops))) {
			t.Errorf("interval %d: error-free run retired %d of %d instructions", interval, res.Instructions, len(ops))
		}
		if res.Replays > res.Restarts*uint64(interval) {
			t.Errorf("interval %d: %d replays exceed %d restarts times the interval", interval, res.Replays, res.Restarts)
		}
		harvested := watts * h.Now()
		if consumed := res.TotalEnergy(); consumed > harvested*(1+1e-9)+1e-15 {
			t.Errorf("interval %d: accounted %.6g J exceeds harvested %.6g J", interval, consumed, harvested)
		}
	}
}

// infiniteHarvester returns a supply that can never brown out: the
// buffer starts full and the source harvests far more per cycle than
// any instruction costs.
func infiniteHarvester(cfg *mtj.Config) *power.Harvester {
	return &power.Harvester{
		Src:  power.Constant{W: 1000},
		Cap:  power.NewCapacitor(cfg.CapC, cfg.CapVMax),
		VOff: cfg.CapVMin,
		VOn:  cfg.CapVMax,
		VMax: cfg.CapVMax,
	}
}

// TestInfinitePowerMatchesContinuous checks that Run degenerates to
// RunContinuous when power never runs out: identical Compute, Backup,
// and OnLatency — bit for bit, since both paths must perform the same
// float operations in the same order — and exactly zero Dead, Restore,
// Off, and restart accounting.
func TestInfinitePowerMatchesContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, cfg := range mtj.Configs() {
		ops := randomOps(rng, 2000)
		r := NewRunner(energy.NewModel(cfg))

		cont := r.RunContinuous(&SliceStream{Ops: ops})
		res, err := r.Run(&SliceStream{Ops: ops}, infiniteHarvester(cfg))
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !res.Completed {
			t.Fatalf("%s: run not completed", cfg.Name)
		}
		if res.ComputeEnergy != cont.ComputeEnergy {
			t.Errorf("%s: ComputeEnergy %.12g != continuous %.12g", cfg.Name, res.ComputeEnergy, cont.ComputeEnergy)
		}
		if res.BackupEnergy != cont.BackupEnergy {
			t.Errorf("%s: BackupEnergy %.12g != continuous %.12g", cfg.Name, res.BackupEnergy, cont.BackupEnergy)
		}
		if res.OnLatency != cont.OnLatency {
			t.Errorf("%s: OnLatency %.12g != continuous %.12g", cfg.Name, res.OnLatency, cont.OnLatency)
		}
		if res.Instructions != cont.Instructions || res.LevelSwitches != cont.LevelSwitches {
			t.Errorf("%s: instruction accounting differs: %d/%d vs %d/%d",
				cfg.Name, res.Instructions, res.LevelSwitches, cont.Instructions, cont.LevelSwitches)
		}
		if res.DeadEnergy != 0 || res.RestoreEnergy != 0 || res.DeadLatency != 0 ||
			res.RestoreLatency != 0 || res.OffLatency != 0 || res.Restarts != 0 {
			t.Errorf("%s: infinite power still paid intermittence costs: %+v", cfg.Name, res.Breakdown)
		}
		if res.Replays != 0 {
			t.Errorf("%s: infinite power still replayed %d instructions", cfg.Name, res.Replays)
		}
	}
}

package sim

import (
	"io"
	"math/rand"
	"testing"

	"mouse/internal/array"
	"mouse/internal/compile"
	"mouse/internal/controller"
	"mouse/internal/energy"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
)

// starvedMachineRun executes a starved multiplier workload on the
// bit-accurate machine with the given observer attached (nil for none)
// and returns the machine and result for differential comparison.
func starvedMachineRun(t *testing.T, forceScalar bool, obs probe.Observer) (*array.Machine, Result) {
	t.Helper()
	cfg := mtj.ModernSTT()
	b := compile.NewBuilder(64)
	b.ActivateBroadcast([]uint16{0, 1, 2, 3, 4, 5, 6, 7})
	x := b.AllocWord(6, 0)
	y := b.AllocWord(6, 0)
	b.MulWords(x, y)
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	m := array.NewMachine(cfg, 2, 64, 8)
	m.ForceScalar = forceScalar
	for c := 0; c < 8; c++ {
		for i, w := range x {
			m.Tiles[0].SetBit(w.Row, c, (c*3+5)>>i&1)
		}
		for i, w := range y {
			m.Tiles[0].SetBit(w.Row, c, (c+9)>>i&1)
		}
	}
	ctrl := controller.New(controller.ProgramStore(prog), m)
	h := power.NewHarvester(power.Constant{W: 1.2e-6}, 2.5e-9, cfg.CapVMin, cfg.CapVMax)
	h.Obs = obs
	h.SampleEvery = 1e-6
	mr := NewMachineRunner(ctrl)
	mr.Obs = obs
	res, err := mr.Run(h)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// TestObserverDoesNotPerturbMachineRun is the differential guarantee of
// the probe layer: a starved run with a full observer stack attached
// (Stats + a trace writer + voltage sampling) must be byte-identical —
// every cell, the memory buffer, and the whole energy breakdown — to
// the same run with no observer, on both the packed fast path and the
// scalar ForceScalar path.
func TestObserverDoesNotPerturbMachineRun(t *testing.T) {
	for _, forceScalar := range []bool{false, true} {
		ref, refRes := starvedMachineRun(t, forceScalar, nil)
		if refRes.Restarts == 0 {
			t.Fatalf("forceScalar=%v: starved run saw no outages", forceScalar)
		}

		stats := &probe.Stats{}
		obs := probe.Multi{stats, probe.NewTraceWriter(io.Discard)}
		got, gotRes := starvedMachineRun(t, forceScalar, obs)

		if refRes != gotRes {
			t.Fatalf("forceScalar=%v: results diverge:\nunobserved %+v\nobserved   %+v",
				forceScalar, refRes, gotRes)
		}
		for ti := range ref.Tiles {
			for r := 0; r < ref.Tiles[ti].Rows(); r++ {
				for c := 0; c < ref.Tiles[ti].Cols(); c++ {
					if ref.Tiles[ti].Bit(r, c) != got.Tiles[ti].Bit(r, c) {
						t.Fatalf("forceScalar=%v: tile %d cell (%d,%d) diverged",
							forceScalar, ti, r, c)
					}
				}
			}
		}
		for i := range ref.Buffer {
			if ref.Buffer[i] != got.Buffer[i] {
				t.Fatalf("forceScalar=%v: buffer byte %d diverged", forceScalar, i)
			}
		}

		// The observer's view must agree with the runner's own accounting.
		sec := stats.Section()
		if sec.Instructions != gotRes.Instructions {
			t.Errorf("forceScalar=%v: stats saw %d instructions, result %d",
				forceScalar, sec.Instructions, gotRes.Instructions)
		}
		if sec.Replays != gotRes.Replays {
			t.Errorf("forceScalar=%v: stats saw %d replays, result %d",
				forceScalar, sec.Replays, gotRes.Replays)
		}
		if sec.Outages != gotRes.Restarts+1 {
			// Every restart is one outage, plus the initial charge.
			t.Errorf("forceScalar=%v: stats saw %d outages, restarts %d",
				forceScalar, sec.Outages, gotRes.Restarts)
		}
		if sec.Restores != gotRes.Restarts {
			t.Errorf("forceScalar=%v: stats saw %d restores, restarts %d",
				forceScalar, sec.Restores, gotRes.Restarts)
		}
		if sec.VoltageSamples == 0 {
			t.Errorf("forceScalar=%v: no voltage samples despite SampleEvery", forceScalar)
		}
		if len(sec.TileWrites) == 0 {
			t.Errorf("forceScalar=%v: no tile-write events", forceScalar)
		}
	}
}

// TestObserverDoesNotPerturbTraceRun extends the differential guarantee
// to the analytic trace engine across random streams and power levels.
func TestObserverDoesNotPerturbTraceRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := mtj.ModernSTT()
	for trial := 0; trial < 10; trial++ {
		ops := randomOps(rng, 200+rng.Intn(800))
		watts := 40e-6 * (1 + rng.Float64()*20)
		run := func(obs probe.Observer) Result {
			r := NewRunner(energy.NewModel(cfg))
			r.Obs = obs
			h := power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
			h.Obs = obs
			h.SampleEvery = 1e-3
			res, err := r.Run(&SliceStream{Ops: ops}, h)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref := run(nil)
		stats := &probe.Stats{}
		got := run(stats)
		if ref != got {
			t.Fatalf("trial %d: observed run diverged:\nunobserved %+v\nobserved   %+v",
				trial, ref, got)
		}
		sec := stats.Section()
		if sec.Instructions != got.Instructions || sec.Replays != got.Replays {
			t.Errorf("trial %d: stats %d/%d vs result %d/%d",
				trial, sec.Instructions, sec.Replays, got.Instructions, got.Replays)
		}
	}
}

// TestNopObserverAddsNoAllocations verifies the disabled-probe
// guarantee at its lowest level: attaching the Nop observer to the
// trace engine or to MachineRunner adds zero allocations per run, on
// both the continuous and the intermittent path, compared to no
// observer at all.
func TestNopObserverAddsNoAllocations(t *testing.T) {
	cfg := mtj.ModernSTT()
	ops := randomOps(rand.New(rand.NewSource(5)), 300)
	s := &SliceStream{Ops: ops}
	r := NewRunner(energy.NewModel(cfg))

	runCont := func() { s.Reset(); r.RunContinuous(s) }
	base := testing.AllocsPerRun(50, runCont)
	r.Obs = probe.Nop{}
	if got := testing.AllocsPerRun(50, runCont); got != base {
		t.Errorf("continuous: Nop observer adds allocations: %v -> %v allocs/run", base, got)
	}

	runInt := func() {
		s.Reset()
		h := power.NewHarvester(power.Constant{W: 500e-6}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
		if _, err := r.Run(s, h); err != nil {
			t.Fatal(err)
		}
	}
	r.Obs = nil
	baseInt := testing.AllocsPerRun(20, runInt)
	r.Obs = probe.Nop{}
	if got := testing.AllocsPerRun(20, runInt); got != baseInt {
		t.Errorf("intermittent: Nop observer adds allocations: %v -> %v allocs/run", baseInt, got)
	}

	for _, harvested := range []bool{false, true} {
		runMachine := func(obs probe.Observer) func() {
			return func() {
				c, _ := funcRig(cfg)
				mr := NewMachineRunner(c)
				mr.Obs = obs
				var h *power.Harvester
				if harvested {
					h = power.NewHarvester(power.Constant{W: 4e-6}, 1e-9, cfg.CapVMin, cfg.CapVMax)
				}
				res, err := mr.Run(h)
				if err != nil {
					t.Fatal(err)
				}
				if harvested && res.Restarts == 0 {
					t.Fatal("harvested machine run saw no outages")
				}
			}
		}
		base := testing.AllocsPerRun(20, runMachine(nil))
		if got := testing.AllocsPerRun(20, runMachine(probe.Nop{})); got != base {
			t.Errorf("machine (harvested=%v): Nop observer adds allocations: %v -> %v allocs/run", harvested, base, got)
		}
	}
}

// TestReplaysNeverExceedRestarts pins the paper's core intermittence
// claim (Section IV-D: "at most one instruction is re-executed" per
// outage) across random streams, configurations, and power levels.
func TestReplaysNeverExceedRestarts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfgs := mtj.Configs()
	for trial := 0; trial < 20; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		watts := 40e-6 * (1 + rng.Float64()*50)
		ops := randomOps(rng, 200+rng.Intn(1000))
		r := NewRunner(energy.NewModel(cfg))
		h := power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
		res, err := r.Run(&SliceStream{Ops: ops}, h)
		if err != nil {
			t.Fatalf("trial %d (%s, %.3g W): %v", trial, cfg.Name, watts, err)
		}
		if res.Replays > res.Restarts {
			t.Errorf("trial %d (%s, %.3g W): %d replays exceed %d restarts",
				trial, cfg.Name, watts, res.Replays, res.Restarts)
		}
	}
}

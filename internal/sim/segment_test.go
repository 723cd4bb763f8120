package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
)

// spyStream wraps SliceStream and counts which access path an engine
// used: the stepping path consumes Next(), the segment engine reads
// Runs(). This distinguishes the engines structurally, without relying
// on their outputs differing (they must not).
type spyStream struct {
	SliceStream
	nexts, runs int
}

func (s *spyStream) Next() (energy.Op, bool) { s.nexts++; return s.SliceStream.Next() }
func (s *spyStream) Runs() []energy.OpRun    { s.runs++; return s.SliceStream.Runs() }

// steppingResult reruns the stream on a fresh harvester with the
// segment engine disabled.
func steppingResult(t *testing.T, r *Runner, ops []energy.Op, mk func() *power.Harvester) (Result, error) {
	t.Helper()
	forced := *r
	forced.ForceStepping = true
	return forced.Run(&SliceStream{Ops: ops}, mk())
}

// requireIdentical fails unless the two results are bit-identical and
// the errors render identically.
func requireIdentical(t *testing.T, label string, seg, step Result, segErr, stepErr error) {
	t.Helper()
	if seg != step {
		t.Errorf("%s: segment result diverges from stepping\nsegment:  %+v\nstepping: %+v", label, seg, step)
	}
	switch {
	case (segErr == nil) != (stepErr == nil):
		t.Errorf("%s: error parity broken: segment=%v stepping=%v", label, segErr, stepErr)
	case segErr != nil && segErr.Error() != stepErr.Error():
		t.Errorf("%s: error text diverges:\nsegment:  %v\nstepping: %v", label, segErr, stepErr)
	}
}

// TestSegmentPathSelection verifies the automatic fast/slow split:
// constant power with no observation takes the segment engine; traces,
// observers, voltage sampling, and ForceStepping all keep the stepping
// path.
func TestSegmentPathSelection(t *testing.T) {
	cfg := mtj.ModernSTT()
	ops := randomOps(rand.New(rand.NewSource(3)), 300)
	mkConst := func() *power.Harvester {
		return power.NewHarvester(power.Constant{W: 60e-6}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	}

	run := func(t *testing.T, r *Runner, h *power.Harvester) *spyStream {
		t.Helper()
		s := &spyStream{SliceStream: SliceStream{Ops: ops}}
		if _, err := r.Run(s, h); err != nil {
			t.Fatalf("run: %v", err)
		}
		return s
	}

	r := NewRunner(energy.NewModel(cfg))
	if s := run(t, r, mkConst()); s.runs == 0 || s.nexts != 0 {
		t.Errorf("constant source: nexts=%d runs=%d, want segment path (runs>0, nexts=0)", s.nexts, s.runs)
	}

	forced := NewRunner(energy.NewModel(cfg))
	forced.ForceStepping = true
	if s := run(t, forced, mkConst()); s.runs != 0 || s.nexts == 0 {
		t.Errorf("ForceStepping: nexts=%d runs=%d, want stepping path", s.nexts, s.runs)
	}

	observed := NewRunner(energy.NewModel(cfg))
	observed.Obs = &probe.Stats{}
	if s := run(t, observed, mkConst()); s.runs != 0 || s.nexts == 0 {
		t.Errorf("attached observer: nexts=%d runs=%d, want stepping path", s.nexts, s.runs)
	}

	sampled := mkConst()
	sampled.Obs = &probe.Stats{}
	sampled.SampleEvery = 1e-6
	if s := run(t, NewRunner(energy.NewModel(cfg)), sampled); s.runs != 0 || s.nexts == 0 {
		t.Errorf("voltage sampling: nexts=%d runs=%d, want stepping path", s.nexts, s.runs)
	}

	solar := power.NewHarvester(power.Solar{Peak: 5e-3, Period: 2}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	if s := run(t, NewRunner(energy.NewModel(cfg)), solar); s.runs != 0 || s.nexts == 0 {
		t.Errorf("solar source: nexts=%d runs=%d, want stepping path", s.nexts, s.runs)
	}
}

// TestSegmentMatchesSteppingRandom is the core differential property on
// randomized streams: across configurations and power levels spanning
// outage-free to outage-dominated regimes, the segment engine's Result
// must equal the stepping engine's bit for bit.
func TestSegmentMatchesSteppingRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	cfgs := mtj.Configs()
	for trial := 0; trial < 40; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		watts := 20e-6 * (1 + rng.Float64()*500) // 20 µW – 10 mW
		ops := randomOps(rng, 100+rng.Intn(2000))
		r := NewRunner(energy.NewModel(cfg))
		mk := func() *power.Harvester {
			return power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
		}

		seg, segErr := r.Run(&SliceStream{Ops: ops}, mk())
		step, stepErr := steppingResult(t, r, ops, mk)
		requireIdentical(t, cfg.Name, seg, step, segErr, stepErr)
		if t.Failed() {
			t.Fatalf("trial %d (%s, %.3g W)", trial, cfg.Name, watts)
		}
	}
}

// TestSegmentFinalVoltageMatchesStepping: the segment engine writes the
// harvester's buffer back on exit; the final voltage must be the exact
// stepped value (the clock is committed in bulk and may differ by
// sub-cycle remainders, but the buffer state is part of the physics).
func TestSegmentFinalVoltageMatchesStepping(t *testing.T) {
	cfg := mtj.ModernSTT()
	ops := randomOps(rand.New(rand.NewSource(11)), 800)
	r := NewRunner(energy.NewModel(cfg))
	mk := func() *power.Harvester {
		return power.NewHarvester(power.Constant{W: 60e-6}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	}

	hSeg, hStep := mk(), mk()
	if _, err := r.Run(&SliceStream{Ops: ops}, hSeg); err != nil {
		t.Fatalf("segment: %v", err)
	}
	forced := *r
	forced.ForceStepping = true
	if _, err := forced.Run(&SliceStream{Ops: ops}, hStep); err != nil {
		t.Fatalf("stepping: %v", err)
	}
	if hSeg.Cap.Voltage() != hStep.Cap.Voltage() {
		t.Errorf("final buffer voltage: segment %.17g V, stepping %.17g V",
			hSeg.Cap.Voltage(), hStep.Cap.Voltage())
	}
}

// TestSegmentNonTerminationParity: an instruction that can never
// commit must abort both engines with the identical error text and
// identical partial accounting. The restore-gap case fits one window on
// its own, but not the window left after the restore that precedes its
// retry.
func TestSegmentNonTerminationParity(t *testing.T) {
	cfg := mtj.ModernSTT()
	m := energy.NewModel(cfg)
	nand := energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 8192}
	gapJ := m.Energy(nand) + m.Backup(nand) + m.Restore(8192)/2
	gapVOn := math.Sqrt(2*gapJ/cfg.CapC + cfg.CapVMin*cfg.CapVMin)
	cases := []struct {
		name string
		ops  []energy.Op
		mk   func() *power.Harvester
	}{
		{
			// A tiny buffer whose window cannot pay for a wide logic op.
			name: "oversized instruction",
			ops: []energy.Op{
				{Kind: isa.KindAct, ActCols: 8},
				{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 2048},
			},
			mk: func() *power.Harvester {
				return power.NewHarvester(power.Constant{W: 10e-6}, 1e-9, cfg.CapVMin, cfg.CapVMax)
			},
		},
		{
			name: "restore gap",
			ops:  []energy.Op{{Kind: isa.KindAct, ActCols: 8192}, nand},
			mk: func() *power.Harvester {
				return power.NewHarvester(power.Constant{W: 0.1e-6}, cfg.CapC, cfg.CapVMin, gapVOn)
			},
		},
	}
	r := NewRunner(energy.NewModel(cfg))
	for _, c := range cases {
		var seg, step Result
		var segErr, stepErr error
		withDeadline(t, 10*time.Second, func() {
			seg, segErr = r.Run(&SliceStream{Ops: c.ops}, c.mk())
			step, stepErr = steppingResult(t, r, c.ops, c.mk)
		})
		if !errors.Is(segErr, ErrNonTermination) {
			t.Fatalf("%s: segment did not detect non-termination: %v", c.name, segErr)
		}
		requireIdentical(t, c.name, seg, step, segErr, stepErr)
		if seg.Completed {
			t.Errorf("%s: aborted run marked completed", c.name)
		}
	}
}

// TestSegmentChargeWaitParity: a source too weak to recharge within
// MaxChargeWait must abort both engines identically — both on the
// initial charge and on a mid-run recharge.
func TestSegmentChargeWaitParity(t *testing.T) {
	cfg := mtj.ModernSTT()
	ops := randomOps(rand.New(rand.NewSource(5)), 200)
	r := NewRunner(energy.NewModel(cfg))

	// Initial charge exceeds the wait budget.
	r.MaxChargeWait = 1e-9
	mk := func() *power.Harvester {
		return power.NewHarvester(power.Constant{W: 10e-6}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	}
	seg, segErr := r.Run(&SliceStream{Ops: ops}, mk())
	step, stepErr := steppingResult(t, r, ops, mk)
	if segErr == nil {
		t.Fatal("charge beyond MaxChargeWait did not fail")
	}
	requireIdentical(t, "initial charge", seg, step, segErr, stepErr)

	// A dead source cannot charge at all.
	r.MaxChargeWait = 24 * 3600
	mkDead := func() *power.Harvester {
		return power.NewHarvester(power.Constant{W: 0}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	}
	seg, segErr = r.Run(&SliceStream{Ops: ops}, mkDead())
	step, stepErr = steppingResult(t, r, ops, mkDead)
	if segErr == nil {
		t.Fatal("dead source did not fail")
	}
	requireIdentical(t, "dead source", seg, step, segErr, stepErr)

	// Invalid harvester configurations must fail identically too.
	mkBad := func() *power.Harvester {
		return power.NewHarvester(power.Constant{W: 60e-6}, 0, cfg.CapVMin, cfg.CapVMax)
	}
	seg, segErr = r.Run(&SliceStream{Ops: randomOps(rand.New(rand.NewSource(6)), 50)}, mkBad())
	step, stepErr = steppingResult(t, r, randomOps(rand.New(rand.NewSource(6)), 50), mkBad)
	if segErr == nil || !errors.Is(segErr, power.ErrInvalidHarvester) {
		t.Fatalf("invalid harvester did not fail typed: %v", segErr)
	}
	requireIdentical(t, "invalid harvester", seg, step, segErr, stepErr)
}

// TestSegmentEmptyStream: a stream with no operations still pays the
// initial charge, identically on both paths.
func TestSegmentEmptyStream(t *testing.T) {
	cfg := mtj.ModernSTT()
	r := NewRunner(energy.NewModel(cfg))
	mk := func() *power.Harvester {
		return power.NewHarvester(power.Constant{W: 60e-6}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	}
	seg, segErr := r.Run(&SliceStream{}, mk())
	step, stepErr := steppingResult(t, r, nil, mk)
	requireIdentical(t, "empty stream", seg, step, segErr, stepErr)
	if !seg.Completed || seg.Instructions != 0 || seg.OffLatency == 0 {
		t.Errorf("empty-stream result suspicious: %+v", seg)
	}
}

// TestSegmentPropertyInvariants checks the extrapolation-facing
// invariants on the segment path directly: at most one replay per
// restart, instruction count equal to the stream length, and energy
// conservation (accounted energy cannot exceed harvest).
func TestSegmentPropertyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfgs := mtj.Configs()
	for trial := 0; trial < 25; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		watts := 40e-6 * (1 + rng.Float64()*100)
		ops := randomOps(rng, 200+rng.Intn(1500))
		r := NewRunner(energy.NewModel(cfg))
		h := power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)

		s := &spyStream{SliceStream: SliceStream{Ops: ops}}
		res, err := r.Run(s, h)
		if err != nil && !errors.Is(err, ErrNonTermination) {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.runs == 0 {
			t.Fatalf("trial %d: segment path not taken", trial)
		}
		if res.Replays > res.Restarts {
			t.Errorf("trial %d: %d replays exceed %d restarts", trial, res.Replays, res.Restarts)
		}
		if err == nil && res.Instructions != uint64(len(ops)) {
			t.Errorf("trial %d: retired %d of %d instructions", trial, res.Instructions, len(ops))
		}
		harvested := watts * (res.OnLatency + res.OffLatency)
		if consumed := res.TotalEnergy(); consumed > harvested*(1+1e-9)+1e-15 {
			t.Errorf("trial %d: accounted %.6g J exceeds harvested %.6g J", trial, consumed, harvested)
		}
	}
}

// FuzzSegmentVsStepping derives an op stream and a constant-power
// harvester from the fuzz inputs and requires the two engines to agree
// byte for byte — Result structs equal under ==, error texts identical.
func FuzzSegmentVsStepping(f *testing.F) {
	f.Add(int64(1), uint16(300), 60.0, uint8(0))
	f.Add(int64(2), uint16(40), 5000.0, uint8(1))
	f.Add(int64(3), uint16(1200), 20.0, uint8(2))
	f.Add(int64(99), uint16(0), 100.0, uint8(0))
	f.Add(int64(7), uint16(800), 0.0, uint8(1)) // dead source
	f.Fuzz(func(t *testing.T, seed int64, n uint16, microwatts float64, cfgSel uint8) {
		if microwatts < 0 || microwatts > 1e9 {
			t.Skip()
		}
		cfgs := mtj.Configs()
		cfg := cfgs[int(cfgSel)%len(cfgs)]
		ops := randomOps(rand.New(rand.NewSource(seed)), int(n)%2048)
		r := NewRunner(energy.NewModel(cfg))
		mk := func() *power.Harvester {
			return power.NewHarvester(power.Constant{W: microwatts * 1e-6}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
		}

		seg, segErr := r.Run(&SliceStream{Ops: ops}, mk())
		step, stepErr := steppingResult(t, r, ops, mk)
		requireIdentical(t, "fuzz", seg, step, segErr, stepErr)
	})
}

// FuzzCheckpointInterval covers the rollback loop behind
// RunWithCheckpointInterval at intervals k >= 1: every run either
// completes all its instructions or stops with ErrNonTermination within
// a deadline, and an outage replays at most k instructions. uniform
// selects a stream of identical 8192-pair NANDs instead of random ops;
// its seeds are the two intervals that once livelocked on ModernSTT at
// 60 µW.
func FuzzCheckpointInterval(f *testing.F) {
	f.Add(int64(0), uint16(3000), 60.0, uint8(0), uint16(1300), true)
	f.Add(int64(0), uint16(3000), 60.0, uint8(0), uint16(2000), true)
	f.Add(int64(1), uint16(300), 60.0, uint8(0), uint16(8), false)
	f.Add(int64(2), uint16(1500), 20.0, uint8(1), uint16(64), false)
	f.Add(int64(3), uint16(2000), 5000.0, uint8(2), uint16(700), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, microwatts float64, cfgSel uint8, k uint16, uniform bool) {
		// Below 1 µW the initial charge can outlast MaxChargeWait, a
		// different error than the one under test.
		if !(microwatts >= 1 && microwatts <= 1e9) || k == 0 {
			t.Skip()
		}
		cfgs := mtj.Configs()
		cfg := cfgs[int(cfgSel)%len(cfgs)]
		var s *SliceStream
		if uniform {
			s = nandStream(1 + int(n)%4096)
		} else {
			s = &SliceStream{Ops: randomOps(rand.New(rand.NewSource(seed)), int(n)%2048)}
		}
		r := NewRunner(energy.NewModel(cfg))
		var res Result
		var err error
		withDeadline(t, 10*time.Second, func() {
			res, err = r.RunWithCheckpointInterval(s, harvester(cfg, microwatts*1e-6), int(k))
		})
		switch {
		case err == nil:
			if !res.Completed || res.Instructions != uint64(len(s.Ops)) {
				t.Errorf("k=%d: error-free run retired %d of %d instructions (completed %v)",
					k, res.Instructions, len(s.Ops), res.Completed)
			}
		case errors.Is(err, ErrNonTermination):
			if res.Completed {
				t.Errorf("k=%d: aborted run marked completed", k)
			}
		default:
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Replays > res.Restarts*uint64(k) {
			t.Errorf("k=%d: %d replays exceed %d restarts times the interval", k, res.Replays, res.Restarts)
		}
	})
}

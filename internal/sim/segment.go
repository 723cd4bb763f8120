package sim

import (
	"math"

	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/power"
	"mouse/internal/probe"
)

// The analytic segment engine: the intermittent counterpart of the
// packed bit-plane and bit-sliced batch fast paths. For constant-power
// sources the entire outage protocol is closed-form arithmetic — every
// Draw, recharge, and restore is a function of the buffer voltage and
// per-run constants alone, never of the clock — so a run-length encoded
// stream can be retired window by window without stepping the
// harvester, and, once the execution reaches its periodic steady state,
// whole outage-to-outage windows replay from a cache in O(1).
//
// Float identity with the stepping Run is a hard requirement (the
// differential tests compare Result structs with ==), which dictates
// the design:
//
//   - The engine replays the stepping path's float operations exactly —
//     the same expressions on the same values in the same order — using
//     the pure helpers power.EnergyOf / EnergyAboveOf / VoltageAfterAdd
//     the Capacitor itself delegates to. Retiring a segment by
//     prefix-sum subtraction or multiplying a steady-state window by an
//     iteration count would be only approximately equal.
//   - Accounting is window-local (mirroring Run's acc/flush structure):
//     each window's sums start from zero, so a window's Breakdown
//     depends only on its entry state, not on its position in the run.
//     That is what makes a cached window bit-exact at every revisit.
//   - The steady-state detector keys windows on the exact entry state:
//     (run index, voltage bits, active columns, converter level). A
//     revisit of that tuple reproduces the identical window, so the
//     cached Breakdown, replay count, and exit state substitute for the
//     fold. The cache only records windows that open after a restore
//     (retry pending) and close inside the same run, and only applies
//     when the remaining run still contains the window's closing
//     outage; everything else folds fresh.
//   - When the buffer is pinned at VMax (the run's draw never exceeds
//     the VMax budget and the post-draw clamp writes back exactly
//     VMax), the voltage is stationary and the per-op sqrt/divide chain
//     is skipped outright; only the Breakdown adds remain, because
//     float sums are not associative and each op's add must happen
//     individually.
//
// The engine is written as a resumable per-lane state machine (segLane)
// rather than nested loops so that RunSweep can interleave several
// constant-power lanes in one pass. The voltage recurrence
// v' = sqrt(2*(0.5*C*v*v + de)/C) is a serial sqrt+divide dependency
// chain (~45 cycles of latency per retired op when folding fresh);
// round-robin stepping across independent lanes lets the out-of-order
// core overlap the chains, turning the fold latency-bound into
// throughput-bound — on SVM ADULT on a 2-vCPU VM about 1.5-2x over
// running the 8 lanes one by one (about 6.7 ms against 3.0-4.7 ms), on
// top of the window cache, at identical per-lane arithmetic.
//
// The harvester is written back in bulk on exit: the buffer voltage is
// exact; the clock advances by OnLatency+OffLatency, which can differ
// from the stepped clock by the sub-cycle remainders of interrupted
// instructions (the Result itself carries no clock, so this does not
// affect accounting).

// segKey is a window's entry state. Windows are entered immediately
// after a restore completes, with the interrupted instruction's replay
// pending, so the run index plus these three state variables determine
// the entire window.
type segKey struct {
	ri    int
	vBits uint64
	cols  int
	level int
}

// segWindow is one fully folded outage-to-outage window: the
// instructions it retired, its Breakdown contribution, and the state it
// exits with (again post-restore, replay pending).
type segWindow struct {
	retired   int64
	sum       energy.Breakdown
	replays   uint64
	exitV     float64
	exitCols  int
	exitLevel int
}

// segLane is one constant-power execution in flight: a Runner's full
// intermittent-run state, advanced one retired instruction per step
// call. Run drives a single lane to completion; RunSweep round-robins
// several so their voltage chains overlap.
type segLane struct {
	idx int // position in the caller's harvester slice (RunSweep)

	r *Runner
	h *power.Harvester
	p power.ConstantPlan

	costs *energy.RunCosts

	// Sweep-wide constants.
	dt         float64 // Model.CycleTime()
	harvest    float64 // p.W*dt: h.Src.Power(t)*dt, t-independent
	window     float64 // p.WindowJ: the stepping path's h.WindowEnergy()
	budgetVMax float64 // the stepping budget whenever the buffer sits at VMax

	// Stream position: runs[ri], used instructions retired from it.
	ri   int
	used int64

	// Per-run constants, refreshed by enterRun (count and actCols are
	// cached off the OpRun so the hot path never loads the run struct).
	count     int64
	ec, bk, e float64
	lv        int
	actCols   int
	isAct     bool
	pinned    bool // VMax is a fixed point of this run's draw

	// Machine state.
	v           float64
	cols, level int
	replays     uint64

	// Window-local accounting, exactly as in the stepping Run: acc
	// flushes into b at window close, error, and stream end.
	b, acc energy.Breakdown

	cache       map[segKey]segWindow
	restoreCost map[int]float64 // Model.Restore front-cache by cols

	// Recording state for the currently open window. Only windows that
	// open post-restore are recordable; the first window (fresh start)
	// and any window that crosses a run boundary fold fresh.
	recordable bool
	wKey       segKey
	wRetired   int64
	wReplays   uint64

	res  Result
	err  error
	done bool
}

// newSegLane validates the harvester and performs the initial charge.
// The lane may come back already done (charge error). The caller
// precosts the stream once — sweeps share the arrays across lanes.
func newSegLane(r *Runner, h *power.Harvester, p power.ConstantPlan, costs *energy.RunCosts) *segLane {
	dt := r.Model.CycleTime()
	harvest := p.W * dt
	ls := &segLane{
		r: r, h: h, p: p, costs: costs,
		dt: dt, harvest: harvest,
		window:      p.WindowJ,
		budgetVMax:  power.EnergyAboveOf(p.C, p.VMax, p.VOff) + harvest,
		v:           h.Cap.Voltage(),
		cache:       make(map[segKey]segWindow),
		restoreCost: make(map[int]float64),
	}

	// Initial charge from an empty (or partial) buffer.
	offDt, charged, cerr := p.ChargeTime(power.EnergyOf(p.C, ls.v), r.MaxChargeWait)
	if cerr != nil {
		ls.finish(cerr, false)
		return ls
	}
	if charged {
		ls.v = p.VOn
	}
	ls.b.OffLatency += offDt

	if len(costs.Runs) == 0 {
		ls.finish(nil, true)
		return ls
	}
	ls.enterRun()
	return ls
}

// enterRun refreshes the per-run constants for runs[ri].
func (ls *segLane) enterRun() {
	run := ls.costs.Runs[ls.ri]
	ls.count = run.Count
	ls.ec, ls.bk = ls.costs.Compute[ls.ri], ls.costs.Backup[ls.ri]
	ls.e = ls.costs.Total[ls.ri]
	ls.lv = ls.costs.Level[ls.ri]
	ls.isAct = run.Op.Kind == isa.KindAct
	ls.actCols = run.Op.ActCols
	// Pinned-state detection: when the buffer sits exactly at VMax and
	// this run's instruction both fits the VMax budget and leaves the
	// post-draw voltage at or above VMax (so the clamp writes back
	// exactly VMax), every further op of the run is a frac==1 commit
	// that does not move the voltage. The expression below is the
	// stepping path's own update evaluated once — if its result clamps
	// to VMax, so does every per-op evaluation, bit for bit.
	ls.pinned = (ls.e <= ls.budgetVMax || ls.e <= 0) &&
		power.VoltageAfterAdd(ls.p.C, ls.p.VMax, ls.harvest-ls.e) >= ls.p.VMax
	ls.used = 0
}

// flush folds the open window's accrual into the run total.
func (ls *segLane) flush() {
	ls.b.Add(ls.acc)
	ls.acc = energy.Breakdown{}
}

// finish closes the lane: flush, build the Result, and write the
// harvester back so callers observe the same final buffer voltage as
// stepping (the clock advances in bulk).
func (ls *segLane) finish(err error, completed bool) {
	ls.flush()
	ls.res = Result{Breakdown: ls.b, Replays: ls.replays, Completed: completed}
	ls.err = err
	ls.done = true
	ls.h.Cap.SetVoltage(ls.v)
	ls.h.AdvanceClock(ls.b.OnLatency + ls.b.OffLatency)
}

// step retires at least one instruction (replaying through any outages
// it hits) or finishes the lane; it reports whether the lane still has
// work. One call never spans an outage boundary mid-instruction, so
// interleaved lanes stay independent.
func (ls *segLane) step() bool {
	if ls.done {
		return false
	}

	// Bulk-commit a pinned tail: the voltage, columns, and level are all
	// stationary past the run's first retired op, so the only per-op
	// work bit-identity still requires is the Breakdown accumulation
	// itself (the sqrt/divide voltage chain is gone).
	if ls.pinned && ls.used > 0 && ls.v == ls.p.VMax {
		rem := ls.count - ls.used
		for j := int64(0); j < rem; j++ {
			ls.acc.ComputeEnergy += ls.ec
			ls.acc.BackupEnergy += ls.bk
			ls.acc.OnLatency += ls.dt
		}
		ls.acc.Instructions += uint64(rem)
		ls.wRetired += rem
		return ls.advanceRun()
	}

	// Fast path: the overwhelmingly common case is a plain commit with
	// no outage — h.Draw(dt, e) inlined over the local voltage.
	budget := power.EnergyAboveOf(ls.p.C, ls.v, ls.p.VOff) + ls.harvest
	if ls.e <= budget || ls.e <= 0 {
		v := power.VoltageAfterAdd(ls.p.C, ls.v, ls.harvest-ls.e)
		if v > ls.p.VMax {
			v = ls.p.VMax
		}
		ls.v = v
		ls.acc.ComputeEnergy += ls.ec
		ls.acc.BackupEnergy += ls.bk
		ls.acc.OnLatency += ls.dt
		ls.acc.Instructions++
		ls.wRetired++
		return ls.commitAdvance()
	}
	return ls.stepOutage()
}

// stepOutage is the slow path: the pending instruction outages at the
// current voltage. It replays the stepping path's outage protocol —
// partial accrual, recharge, restore (with window close and cache
// chaining) — until the instruction finally commits or the lane errors.
func (ls *segLane) stepOutage() bool {
	retry := false
	for {
		// h.Draw(dt, e), inlined over the local voltage.
		budget := power.EnergyAboveOf(ls.p.C, ls.v, ls.p.VOff) + ls.harvest
		var frac float64
		if ls.e <= budget || ls.e <= 0 {
			v := power.VoltageAfterAdd(ls.p.C, ls.v, ls.harvest-ls.e)
			if v > ls.p.VMax {
				v = ls.p.VMax
			}
			ls.v = v
			frac = 1.0
		} else {
			// Outage: the buffer pins at VOff. frac can still round up
			// to exactly 1.0, in which case the stepping path commits
			// the instruction with the buffer at VOff — the branch
			// below reproduces that.
			frac = budget / ls.e
			ls.v = ls.p.VOff
		}
		if frac >= 1 {
			if retry {
				ls.acc.DeadEnergy += ls.ec
				ls.acc.DeadLatency += ls.dt
				ls.replays++
				ls.wReplays++
			} else {
				ls.acc.ComputeEnergy += ls.ec
			}
			ls.acc.BackupEnergy += ls.bk
			ls.acc.OnLatency += ls.dt
			ls.acc.Instructions++
			ls.wRetired++
			break
		}
		retry = true
		ls.acc.DeadEnergy += ls.e * frac
		ls.acc.DeadLatency += ls.dt * frac
		ls.acc.OnLatency += ls.dt * frac
		ls.acc.Restarts++
		// An ACT cut past its register commit restores its own columns.
		if ls.isAct && frac >= actRegCommitFrac {
			ls.cols = ls.actCols
		}

		// The stepping path's non-termination test at k = 1: the
		// restore plus this instruction, net of harvest, against the
		// window.
		rc, ok := ls.restoreCost[ls.cols]
		if !ok {
			rc = ls.r.Model.Restore(ls.cols)
			ls.restoreCost[ls.cols] = rc
		}
		if need := drain(rc, ls.harvest) + drain(ls.e, ls.harvest); need > ls.window {
			ls.finish(nonTermination(need, ls.window), false)
			return false
		}

		// h.ChargeUntilOn, closed form.
		if !ls.recharge() {
			return false
		}

		// r.restore, inlined: pay the re-activation cost, recharging
		// through any further outages.
		for {
			budget := power.EnergyAboveOf(ls.p.C, ls.v, ls.p.VOff) + ls.harvest
			var rfrac float64
			if rc <= budget || rc <= 0 {
				v := power.VoltageAfterAdd(ls.p.C, ls.v, ls.harvest-rc)
				if v > ls.p.VMax {
					v = ls.p.VMax
				}
				ls.v = v
				rfrac = 1.0
			} else {
				rfrac = budget / rc
				ls.v = ls.p.VOff
			}
			ls.acc.RestoreEnergy += rc * rfrac
			ls.acc.RestoreLatency += ls.dt * rfrac
			ls.acc.OnLatency += ls.dt * rfrac
			if rfrac >= 1 {
				break
			}
			if !ls.recharge() {
				return false
			}
		}

		// Restore complete: the window closes here. Record it if it
		// opened post-restore and stayed inside this run.
		if ls.recordable && ls.wKey.ri == ls.ri {
			ls.cache[ls.wKey] = segWindow{
				retired: ls.wRetired, sum: ls.acc, replays: ls.wReplays,
				exitV: ls.v, exitCols: ls.cols, exitLevel: ls.level,
			}
		}
		ls.flush()

		// Steady state: chain any cached windows that fit in the
		// remainder of this run. Each application retires a whole
		// outage-to-outage window in O(1).
		for {
			k := segKey{ri: ls.ri, vBits: math.Float64bits(ls.v), cols: ls.cols, level: ls.level}
			w, hit := ls.cache[k]
			if !hit || ls.used+w.retired >= ls.count {
				break
			}
			ls.b.Add(w.sum)
			ls.replays += w.replays
			ls.v, ls.cols, ls.level = w.exitV, w.exitCols, w.exitLevel
			ls.used += w.retired
		}

		// The next window opens here, replay pending.
		ls.wKey = segKey{ri: ls.ri, vBits: math.Float64bits(ls.v), cols: ls.cols, level: ls.level}
		ls.recordable = true
		ls.wRetired, ls.wReplays = 0, 0
	}
	return ls.commitAdvance()
}

// commitAdvance applies the post-commit state updates (ACT column
// latch, converter level switch) and moves to the next instruction.
func (ls *segLane) commitAdvance() bool {
	if ls.isAct {
		ls.cols = ls.actCols
	}
	if ls.lv >= 0 && ls.lv != ls.level {
		ls.acc.LevelSwitches++
		ls.level = ls.lv
	}
	ls.used++
	if ls.used >= ls.count {
		return ls.advanceRun()
	}
	return true
}

// recharge is the closed-form h.ChargeUntilOn; it reports false after
// finishing the lane on a charge error.
func (ls *segLane) recharge() bool {
	offDt, charged, cerr := ls.p.ChargeTime(power.EnergyOf(ls.p.C, ls.v), ls.r.MaxChargeWait)
	if cerr != nil {
		ls.finish(cerr, false)
		return false
	}
	if charged {
		ls.v = ls.p.VOn
	}
	ls.acc.OffLatency += offDt
	return true
}

// advanceRun moves to the next run, finishing the lane at stream end.
func (ls *segLane) advanceRun() bool {
	ls.ri++
	if ls.ri >= len(ls.costs.Runs) {
		ls.finish(nil, true)
		return false
	}
	ls.enterRun()
	return true
}

// runSegments is Run's analytic fast path. Eligibility (checked by the
// caller): the stream is a RunStream, the source is constant with a
// valid plan, no observer is attached, no voltage sampling, and
// ForceStepping is off.
func (r *Runner) runSegments(s RunStream, h *power.Harvester, p power.ConstantPlan) (Result, error) {
	// Parity with the stepping path's entry/exit stream contract: start
	// from the beginning. The engine reads Runs() instead of Next(), so
	// the stream stays rewound rather than exhausted.
	s.Reset()
	if err := h.Validate(); err != nil {
		return Result{}, err
	}
	ls := newSegLane(r, h, p, energy.PrecostRuns(r.Model, s.Runs()))
	for ls.step() {
	}
	return ls.res, ls.err
}

// RunSweep executes the same stream once per harvester — the shape of
// every power-grid experiment — and returns the per-harvester Results
// and errors, each bit-identical to the corresponding r.Run(s, hs[i])
// call in isolation.
//
// Lanes that qualify for the segment engine (RunStream, constant
// source, no observer or sampling, ForceStepping off) share one
// precosting pass and advance round-robin, one retired instruction per
// turn, so their serial sqrt/divide voltage chains overlap in the
// out-of-order core: the sweep folds at divider-throughput instead of
// chain-latency. Everything else falls back to sequential r.Run calls
// with unchanged semantics.
func (r *Runner) RunSweep(s OpStream, hs []*power.Harvester) ([]Result, []error) {
	results := make([]Result, len(hs))
	errs := make([]error, len(hs))

	var lanes []*segLane
	var rest []int
	rs, streamOK := s.(RunStream)
	eligible := streamOK && !r.ForceStepping && !probe.Enabled(r.Obs)
	var costs *energy.RunCosts
	if eligible {
		rs.Reset()
		costs = energy.PrecostRuns(r.Model, rs.Runs())
	}
	for i, h := range hs {
		if eligible && h != nil && !h.SamplingEnabled() {
			if plan, ok := h.Plan(); ok {
				if err := h.Validate(); err != nil {
					errs[i] = err
					continue
				}
				ls := newSegLane(r, h, plan, costs)
				ls.idx = i
				lanes = append(lanes, ls)
				continue
			}
		}
		rest = append(rest, i)
	}

	// Compaction below reorders the active set in place, so it works on
	// a copy; lanes keeps the finished order for the result copy-out.
	active := append([]*segLane(nil), lanes...)
	for len(active) > 0 {
		n := 0
		for _, ls := range active {
			if ls.step() {
				active[n] = ls
				n++
			}
		}
		active = active[:n]
	}
	for _, ls := range lanes {
		results[ls.idx], errs[ls.idx] = ls.res, ls.err
	}
	for _, i := range rest {
		results[i], errs[i] = r.Run(s, hs[i])
	}
	return results, errs
}

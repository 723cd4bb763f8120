package sim

import (
	"math"

	"mouse/internal/energy"
	"mouse/internal/fsum"
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
//     the Capacitor itself delegates to, per-run prices from
//     energy.PrecostRuns (the stepping loop's energy.Prices table), and
//     Model.Restore at each restart, as stepping calls it. Retiring a segment by
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
//     is skipped outright; the tail's Breakdown adds fold with
//     fsum.AddN, which leaves the bits the per-op adds would.
//   - An observer rides along only if it is a probe.BulkObserver: a
//     run's retirements share one (kind, energy, backup, duration), so
//     the engine reports each run once, at its end, as InstrRetiredN,
//     and emits the outage events (interrupt, recharges, restore) as
//     stepping does. A cached window logs its outage events' values in
//     the lane's flat evs slice and re-emits them whenever it is
//     chained. Events carry no timestamp (T is 0): the engine keeps no
//     clock.
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

	// ev0:ev1 is the window's outage event log in segLane.evs (observed
	// lanes only): the interrupted fraction, each recharge's off time,
	// then the restore's energy and duration.
	ev0, ev1 int
}

// segLane is one constant-power execution in flight: a Runner's full
// intermittent-run state, advanced one retired instruction per step
// call. Run drives a single lane to completion; RunSweep round-robins
// several so their voltage chains overlap.
type segLane struct {
	idx int // position in the caller's harvester slice (RunSweep)

	r   *Runner
	h   *power.Harvester
	p   power.ConstantPlan
	obs probe.BulkObserver // nil when unobserved

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
	runReplays0 uint64 // replays at the current run's entry

	// Window-local accounting, exactly as in the stepping Run: acc
	// flushes into b at window close, error, and stream end.
	b, acc energy.Breakdown

	cache map[segKey]segWindow

	// Recording state for the currently open window. Only windows that
	// open post-restore are recordable; the first window (fresh start)
	// and any window that crosses a run boundary fold fresh.
	recordable bool
	wKey       segKey
	wRetired   int64
	wReplays   uint64

	// evs holds the outage event logs of cached windows, back to back,
	// and at its end the log of the window closing now, from wEv.
	evs []float64
	wEv int

	res  Result
	err  error
	done bool
}

// newSegLane performs the initial charge of a harvester segmentPlan
// admitted. The lane may come back already done (charge error). The
// caller precosts the stream once — sweeps share the arrays across
// lanes.
func newSegLane(r *Runner, h *power.Harvester, p power.ConstantPlan, costs *energy.RunCosts) *segLane {
	dt := r.Model.CycleTime()
	harvest := p.W * dt
	obs, _ := r.Obs.(probe.BulkObserver)
	ls := &segLane{
		r: r, h: h, p: p, obs: obs, costs: costs,
		dt: dt, harvest: harvest,
		window:     p.WindowJ,
		budgetVMax: power.EnergyAboveOf(p.C, p.VMax, p.VOff) + harvest,
		v:          h.Cap.Voltage(),
		cache:      make(map[segKey]segWindow),
	}

	// Initial charge from an empty (or partial) buffer.
	if obs != nil {
		obs.OutageBegin(0)
	}
	offDt, charged, cerr := p.ChargeTime(power.EnergyOf(p.C, ls.v), r.MaxChargeWait)
	if cerr != nil {
		ls.finish(cerr, false)
		return ls
	}
	if charged {
		ls.v = p.VOn
	}
	ls.b.OffLatency += offDt
	if obs != nil {
		obs.OutageEnd(0, offDt)
	}

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
	ls.runReplays0 = ls.replays
}

// emitRun reports the current run's first n retirements, replays
// included, to the observer.
func (ls *segLane) emitRun(n int64) {
	if ls.obs == nil {
		return
	}
	ls.obs.InstrRetiredN(ls.costs.Runs[ls.ri].Op.Kind, uint64(n), ls.replays-ls.runReplays0, ls.ec, ls.bk, ls.dt)
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
	// stationary past the run's first retired op, so the tail is rem
	// identical Breakdown adds, which fsum.AddN folds bit-exactly.
	if ls.pinned && ls.used > 0 && ls.v == ls.p.VMax {
		rem := ls.count - ls.used
		ls.acc.ComputeEnergy = fsum.AddN(ls.acc.ComputeEnergy, ls.ec, uint64(rem))
		ls.acc.BackupEnergy = fsum.AddN(ls.acc.BackupEnergy, ls.bk, uint64(rem))
		ls.acc.OnLatency = fsum.AddN(ls.acc.OnLatency, ls.dt, uint64(rem))
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
		if ls.obs != nil {
			ls.emitInterrupt(frac)
			ls.wEv = len(ls.evs)
			ls.evs = append(ls.evs, frac)
		}

		// The stepping path's non-termination test at k = 1: the
		// restore plus this instruction, net of harvest, against the
		// window.
		rc := ls.r.Model.Restore(ls.cols)
		if need := drain(rc, ls.harvest) + drain(ls.e, ls.harvest); need > ls.window {
			ls.fail(nonTermination(need, ls.window))
			return false
		}

		// h.ChargeUntilOn, closed form.
		if !ls.recharge() {
			return false
		}

		// r.restore, inlined: pay the re-activation cost, recharging
		// through any further outages.
		var spentE, spentT float64
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
			spentE += rc * rfrac
			spentT += ls.dt * rfrac
			if rfrac >= 1 {
				break
			}
			if !ls.recharge() {
				return false
			}
		}

		// Restore complete: the window closes here. Record it if it
		// opened post-restore and stayed inside this run.
		if ls.obs != nil {
			ls.obs.Restored(probe.Restore{Dur: spentT, Cols: ls.cols, Energy: spentE})
			ls.evs = append(ls.evs, spentE, spentT)
		}
		if ls.recordable && ls.wKey.ri == ls.ri {
			ls.cache[ls.wKey] = segWindow{
				retired: ls.wRetired, sum: ls.acc, replays: ls.wReplays,
				exitV: ls.v, exitCols: ls.cols, exitLevel: ls.level,
				ev0: ls.wEv, ev1: len(ls.evs),
			}
		} else {
			ls.evs = ls.evs[:ls.wEv]
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
			if ls.obs != nil {
				ls.emitWindow(w)
			}
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
	if ls.obs != nil {
		ls.obs.OutageBegin(0)
	}
	offDt, charged, cerr := ls.p.ChargeTime(power.EnergyOf(ls.p.C, ls.v), ls.r.MaxChargeWait)
	if cerr != nil {
		ls.fail(cerr)
		return false
	}
	if charged {
		ls.v = ls.p.VOn
	}
	ls.acc.OffLatency += offDt
	if ls.obs != nil {
		ls.obs.OutageEnd(0, offDt)
		ls.evs = append(ls.evs, offDt)
	}
	return true
}

// emitInterrupt reports an outage cutting the pending instruction at
// frac, with the partial energy stepping accounts as lost.
func (ls *segLane) emitInterrupt(frac float64) {
	ls.obs.PulseInterrupted(probe.Interrupt{
		Frac: frac, Kind: ls.costs.Runs[ls.ri].Op.Kind, Lost: ls.e * frac,
	})
}

// emitWindow re-emits a chained window's outage events from its log:
// the interrupt, one outage per recharge, and the restore.
func (ls *segLane) emitWindow(w segWindow) {
	ev := ls.evs[w.ev0:w.ev1]
	ls.emitInterrupt(ev[0])
	for _, off := range ev[1 : len(ev)-2] {
		ls.obs.OutageBegin(0)
		ls.obs.OutageEnd(0, off)
	}
	ls.obs.Restored(probe.Restore{Dur: ev[len(ev)-1], Cols: w.exitCols, Energy: ev[len(ev)-2]})
}

// fail reports the current run's retirements so far and finishes the
// lane with err.
func (ls *segLane) fail(err error) {
	ls.emitRun(ls.used)
	ls.finish(err, false)
}

// advanceRun moves to the next run, finishing the lane at stream end.
func (ls *segLane) advanceRun() bool {
	ls.emitRun(ls.count)
	ls.ri++
	if ls.ri >= len(ls.costs.Runs) {
		ls.finish(nil, true)
		return false
	}
	ls.enterRun()
	return true
}

// runSegments is Run's analytic fast path, for the runs segmentPlan
// admits.
func (r *Runner) runSegments(s RunStream, h *power.Harvester, p power.ConstantPlan) (Result, error) {
	// Parity with the stepping path's entry/exit stream contract: start
	// from the beginning. The engine reads Runs() instead of Next(), so
	// the stream stays rewound rather than exhausted.
	s.Reset()
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
// Unobserved lanes that qualify for the segment engine (RunStream and
// segmentPlan) share one precosting pass and advance round-robin, one
// retired instruction per turn, so their serial sqrt/divide voltage
// chains overlap in the out-of-order core: the sweep folds at
// divider-throughput instead of chain-latency. Everything else runs as
// sequential r.Run calls with unchanged semantics; an observed sweep
// thus still takes the segment engine for a probe.BulkObserver, one
// lane after another, so a shared observer sees each lane's events in
// the order an isolated run emits them.
func (r *Runner) RunSweep(s OpStream, hs []*power.Harvester) ([]Result, []error) {
	results := make([]Result, len(hs))
	errs := make([]error, len(hs))

	var lanes []*segLane
	var rest []int
	rs, isRuns := s.(RunStream)
	interleave := isRuns && !probe.Enabled(r.Obs)
	var costs *energy.RunCosts
	for i, h := range hs {
		if interleave {
			if plan, ok := r.segmentPlan(h); ok {
				if costs == nil {
					rs.Reset()
					costs = energy.PrecostRuns(r.Model, rs.Runs())
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

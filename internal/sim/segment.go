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
// The engine is a resumable per-lane state machine (segLane) around one
// struct-of-arrays kernel (segKernel), so that RunSweep can fold several
// constant-power lanes in one loop. The voltage recurrence
// v' = sqrt(2*(0.5*C*v*v + de)/C) is a serial sqrt+divide dependency
// chain (~50 cycles of latency per retired op when folding fresh). The
// kernel retires one op per lane per pass over flat per-lane arrays, so
// the out-of-order core overlaps the lanes' chains and the fold runs at
// divider throughput instead of chain latency. Run is a kernel of one
// lane. On SVM ADULT's 8 Fig. 9 powers on a 2-vCPU VM, running the
// lanes one by one takes about 5.5 ms and one RunSweep 1.3-2.3 ms
// (median 1.4 ms), on top of the window cache, at identical per-lane
// arithmetic.
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
// intermittent-run state. segKernel folds its plain commits; the lane's
// own methods (settle, resume, retireOne) take everything else.
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

// settle runs the lane's state machine until its pending instruction
// is a plain commit the kernel can fold — one that latches no new ACT
// columns and switches no converter level — or the lane finishes; it
// reports whether the lane still has work. A pinned tail is committed
// in bulk here, and any other instruction retires through
// retireOne.
func (ls *segLane) settle() bool {
	for !ls.done {
		// Bulk-commit a pinned tail: the voltage, columns, and level are
		// all stationary past the run's first retired op, so the tail is
		// rem identical Breakdown adds, which fsum.AddN folds bit-exactly.
		if ls.pinned && ls.used > 0 && ls.v == ls.p.VMax {
			rem := ls.count - ls.used
			ls.acc.ComputeEnergy = fsum.AddN(ls.acc.ComputeEnergy, ls.ec, uint64(rem))
			ls.acc.BackupEnergy = fsum.AddN(ls.acc.BackupEnergy, ls.bk, uint64(rem))
			ls.acc.OnLatency = fsum.AddN(ls.acc.OnLatency, ls.dt, uint64(rem))
			ls.acc.Instructions += uint64(rem)
			ls.wRetired += rem
			ls.advanceRun()
			continue
		}
		if !(ls.isAct && ls.cols != ls.actCols) && !(ls.lv >= 0 && ls.lv != ls.level) {
			return true
		}
		ls.retireOne()
	}
	return false
}

// resume takes the lane back from the kernel: committed reports whether
// the kernel retired the lane's last instruction (the lane then reached
// its run's end or a pinned tail) or stopped at a failed budget check.
// It reports whether the lane still has work.
func (ls *segLane) resume(committed bool) bool {
	switch {
	case !committed:
		ls.retireOne()
	case ls.used >= ls.count:
		ls.advanceRun()
	}
	return ls.settle()
}

// retireOne retires the pending instruction through the stepping path's
// full protocol: h.Draw, and on an outage partial accrual, recharge and
// restore (with window close and cache chaining), until the instruction
// finally commits or the lane errors. It is the kernel's slow path, and
// the only path for an instruction that latches new ACT columns or
// switches the converter level.
func (ls *segLane) retireOne() {
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
			return
		}

		// h.ChargeUntilOn, closed form.
		if !ls.recharge() {
			return
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
				return
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
	ls.commitAdvance()
}

// commitAdvance applies the post-commit state updates (ACT column
// latch, converter level switch) and moves to the next instruction.
func (ls *segLane) commitAdvance() {
	if ls.isAct {
		ls.cols = ls.actCols
	}
	if ls.lv >= 0 && ls.lv != ls.level {
		ls.acc.LevelSwitches++
		ls.level = ls.lv
	}
	ls.used++
	if ls.used >= ls.count {
		ls.advanceRun()
	}
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
func (ls *segLane) advanceRun() {
	ls.emitRun(ls.count)
	ls.ri++
	if ls.ri >= len(ls.costs.Runs) {
		ls.finish(nil, true)
		return
	}
	ls.enterRun()
}

// kernelWidth is the number of lanes segKernel folds at once: enough
// independent voltage chains to fill the out-of-order window (a Fig. 9
// row has 8 powers). Further lanes wait for a slot to free up.
const kernelWidth = 8

// segKernel is the engine's one fast path: it folds the plain no-outage
// commits of the lanes it holds, struct-of-arrays, one instruction per
// lane per pass of its loop — h.Draw(dt, e) over the lane's voltage, the
// stepping path's float expressions in the stepping path's order. A
// lane leaves the loop at its run's end, when its voltage reaches a
// pinned tail's VMax, or when its budget check fails, and goes back to
// its segLane state machine (resume), which handles outages, run
// boundaries, ACT and level-change commits and cached windows, then
// returns it to its slot, or, once it has finished, gives the slot to
// the next waiting lane.
//
// Slot i of every array belongs to lanes[i]: load copies a lane's hot
// state in, store writes it back. Between the two the kernel's copy is
// the live one; Instructions and the window's retired count are
// derived from used on store.
type segKernel struct {
	dt    float64 // the lanes' shared Model.CycleTime()
	n     int     // slots in use: lanes[:n]
	lanes [kernelWidth]*segLane
	wait  []*segLane // settled lanes without a slot yet

	v, e, harvest, ec, bk [kernelWidth]float64
	c, vOff, vMax         [kernelWidth]float64
	// pinV is VMax while the lane's run is pinned, else NaN (which no
	// voltage equals): reaching it hands the tail to the bulk commit.
	pinV                [kernelWidth]float64
	compute, backup, on [kernelWidth]float64 // the open window's acc sums
	used, count, used0  [kernelWidth]int64   // used0: used at load
}

// foldLanes runs lanes, all driven by one Runner, to completion.
func foldLanes(lanes []*segLane) {
	k := &segKernel{}
	for _, ls := range lanes {
		k.dt = ls.dt
		if ls.settle() {
			k.wait = append(k.wait, ls)
		}
	}
	for k.n < kernelWidth && k.fill(k.n) {
		k.n++
	}
	k.run()
}

// fill loads the next waiting lane into slot i; it reports false when
// no lane waits.
func (k *segKernel) fill(i int) bool {
	if len(k.wait) == 0 {
		return false
	}
	k.load(i, k.wait[0])
	k.wait = k.wait[1:]
	return true
}

// load copies ls's hot state into slot i.
func (k *segKernel) load(i int, ls *segLane) {
	k.lanes[i] = ls
	k.v[i], k.e[i], k.harvest[i], k.ec[i], k.bk[i] = ls.v, ls.e, ls.harvest, ls.ec, ls.bk
	k.c[i], k.vOff[i], k.vMax[i] = ls.p.C, ls.p.VOff, ls.p.VMax
	k.pinV[i] = math.NaN()
	if ls.pinned {
		k.pinV[i] = ls.p.VMax
	}
	k.compute[i], k.backup[i], k.on[i] = ls.acc.ComputeEnergy, ls.acc.BackupEnergy, ls.acc.OnLatency
	k.used[i], k.count[i], k.used0[i] = ls.used, ls.count, ls.used
}

// store writes slot i's state back into its lane.
func (k *segKernel) store(i int) {
	ls := k.lanes[i]
	ls.v = k.v[i]
	ls.acc.ComputeEnergy, ls.acc.BackupEnergy, ls.acc.OnLatency = k.compute[i], k.backup[i], k.on[i]
	n := k.used[i] - k.used0[i]
	ls.used = k.used[i]
	ls.acc.Instructions += uint64(n)
	ls.wRetired += n
}

// run folds until every lane has finished.
func (k *segKernel) run() {
	dt := k.dt
	for k.n > 0 {
		for i := 0; i < k.n && i < kernelWidth; i++ {
			budget := power.EnergyAboveOf(k.c[i], k.v[i], k.vOff[i]) + k.harvest[i]
			if !(k.e[i] <= budget || k.e[i] <= 0) {
				k.exit(i, false)
				continue
			}
			v := power.VoltageAfterAdd(k.c[i], k.v[i], k.harvest[i]-k.e[i])
			if v > k.vMax[i] {
				v = k.vMax[i]
			}
			k.v[i] = v
			k.compute[i] += k.ec[i]
			k.backup[i] += k.bk[i]
			k.on[i] += dt
			k.used[i]++
			if k.used[i] >= k.count[i] || v == k.pinV[i] {
				k.exit(i, true)
			}
		}
	}
}

// exit hands slot i's lane back to its state machine and reloads it. A
// lane that finishes gives the slot to the next waiting lane, or to the
// last slot's lane, which then folds again from the next pass on.
func (k *segKernel) exit(i int, committed bool) {
	k.store(i)
	if ls := k.lanes[i]; ls.resume(committed) {
		k.load(i, ls)
		return
	}
	if k.fill(i) {
		return
	}
	k.n--
	if i < k.n {
		k.store(k.n)
		k.load(i, k.lanes[k.n])
	}
}

// RunSweep executes the same stream once per harvester — the shape of
// every power-grid experiment — and returns the per-harvester Results
// and errors, each bit-identical to the corresponding r.Run(s, hs[i])
// call in isolation.
//
// Unobserved lanes that qualify for the segment engine (segmentPlan)
// share one precosting pass and one kernel, which retires
// one instruction per lane per pass, so their serial sqrt/divide
// voltage chains overlap in the out-of-order core: the sweep folds at
// divider throughput instead of chain latency. Everything else runs as
// sequential r.Run calls with unchanged semantics; an observed sweep
// thus still takes the segment engine for a probe.BulkObserver, one
// lane after another, so a shared observer sees each lane's events in
// the order an isolated run emits them.
func (r *Runner) RunSweep(s RunStream, hs []*power.Harvester) ([]Result, []error) {
	results := make([]Result, len(hs))
	errs := make([]error, len(hs))

	var lanes []*segLane
	var rest []int
	interleave := !probe.Enabled(r.Obs)
	var costs *energy.RunCosts
	for i, h := range hs {
		if interleave {
			if plan, ok := r.segmentPlan(h); ok {
				if costs == nil {
					costs = energy.PrecostRuns(r.Model, s.Runs())
				}
				ls := newSegLane(r, h, plan, costs)
				ls.idx = i
				lanes = append(lanes, ls)
				continue
			}
		}
		rest = append(rest, i)
	}

	foldLanes(lanes)
	for _, ls := range lanes {
		results[ls.idx], errs[ls.idx] = ls.res, ls.err
	}
	for _, i := range rest {
		results[i], errs[i] = r.Run(s, hs[i])
	}
	return results, errs
}

// Package sim is MOUSE's intermittent-execution engine. It drives a
// program through the energy model (package energy) under a harvested
// power supply (package power), reproducing the paper's evaluation
// methodology (Section VIII): the machine runs while the capacitor buffer
// is above the shutdown voltage, dies unexpectedly mid-instruction when
// the buffer empties, recharges, restores its active columns, and
// re-performs the interrupted instruction.
//
// Two layers share one stepping loop (Runner.step), which alone draws,
// interrupts, charges and restores; a nil harvester is continuous power
// on the loop's own clock. Every engine prices instructions through an
// energy.Prices table and restores through Model.Restore:
//
//   - The trace layer (Run/RunContinuous/RunWithCheckpointInterval)
//     consumes an OpStream of (instruction kind, activity) events — this
//     is how the paper-scale benchmarks execute, mirroring the authors'
//     analytic R simulator. RunWithCheckpointInterval is the §IV-D
//     ablation, where an outage re-performs every instruction since the
//     last checkpoint. The analytic segment engine (segment.go) is Run's
//     bit-identical fast path for constant sources, unobserved or
//     observed by a probe.BulkObserver such as probe.Stats, with the
//     stepping loop as its oracle.
//   - The functional layer (MachineRunner) drives a real
//     controller.Controller over a bit-accurate array.Machine through
//     the same loop, injecting outages at the exact µ-phase the energy
//     ran out, so small end-to-end inferences demonstrably survive real
//     interruption.
//
// A restart re-latches the columns of the ACT register, which the loop
// tracks for both layers: an ACT commits the register before its PC
// (at actRegCommitFrac of its cycle), so an outage past that point
// restores the interrupted ACT's columns. The functional layer checks
// the controller's non-volatile register against the loop's at every
// restart, so the bit-accurate machine is the rule's oracle and the
// layers return equal Results.
//
// Accounting convention (following the paper's EH-model usage): an
// instruction's first-attempt commit is Compute (plus Backup) energy;
// every failed partial attempt AND the post-restart re-execution are Dead
// energy and Dead latency ("repeating the last instruction on restart");
// each restart's column re-activation is Restore energy and latency. Off
// latency is recharge waiting time, including the initial charge from an
// empty buffer.
//
// Forward progress: every run either completes, with at most one replay
// per outage at interval 1 (at most interval replays per outage in
// general), or stops with ErrNonTermination once the restore plus the
// checkpoint region it must replay cannot fit one discharge window.
package sim

import (
	"errors"
	"fmt"

	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/power"
	"mouse/internal/probe"
)

// OpStream yields the operation sequence of a program.
type OpStream interface {
	// Next returns the next operation, or ok=false at program end.
	Next() (op energy.Op, ok bool)
	// Reset rewinds the stream to the beginning.
	Reset()
}

// RunStream is an OpStream that can also describe itself as a
// run-length encoding. Streams that implement it are eligible for the
// analytic segment engine (segment.go), which prices the runs once and
// retires whole outage-to-outage windows in bulk instead of stepping
// Next() per instruction. Runs() must enumerate exactly the operations
// Next() would yield from a fresh stream, in order; a run-driven
// execution leaves the stream rewound rather than exhausted.
type RunStream interface {
	OpStream
	Runs() []energy.OpRun
}

// SliceStream is an OpStream over a materialized operation slice.
type SliceStream struct {
	Ops []energy.Op
	pos int
}

// Next returns the next operation.
func (s *SliceStream) Next() (energy.Op, bool) {
	if s.pos >= len(s.Ops) {
		return energy.Op{}, false
	}
	op := s.Ops[s.pos]
	s.pos++
	return op, true
}

// Reset rewinds the stream.
func (s *SliceStream) Reset() { s.pos = 0 }

// Runs returns the slice's run-length encoding (RunStream).
func (s *SliceStream) Runs() []energy.OpRun {
	return encodeRuns((&SliceStream{Ops: s.Ops}).Next)
}

// encodeRuns run-length encodes what next yields until it reports the end.
func encodeRuns(next func() (energy.Op, bool)) []energy.OpRun {
	var runs []energy.OpRun
	for {
		op, ok := next()
		if !ok {
			return runs
		}
		if n := len(runs); n > 0 && runs[n-1].Op == op {
			runs[n-1].Count++
			continue
		}
		runs = append(runs, energy.OpRun{Op: op, Count: 1})
	}
}

// ErrNonTermination reports that the program can never make forward
// progress (the intermittent-computing non-termination hazard of
// Section I): the restore plus the checkpoint region it replays — one
// instruction at interval 1 — need more energy than one full buffer
// discharge plus the concurrent harvest can supply. lint.Certify
// applies the same per-region test statically, without the harvest.
var ErrNonTermination = errors.New("sim: non-termination: a checkpoint region exceeds the energy buffer's budget")

// ErrBadInterval reports a checkpoint interval below 1, which has no
// protocol meaning (there is no such thing as committing more than once
// per instruction). Typed so sweep drivers can errors.Is it.
var ErrBadInterval = errors.New("sim: checkpoint interval must be >= 1")

// Runner executes operation streams.
type Runner struct {
	// Model prices every instruction, through one energy.Prices table
	// per run, so it must not change while a run is in flight.
	Model *energy.Model

	// MaxChargeWait bounds a single recharge wait (guards against a
	// source that can never reach V_on). Seconds.
	MaxChargeWait float64

	// Obs receives the run's event stream. Nil or probe.Nop disables
	// emission at the cost of one branch per instruction; observers must
	// never influence accounting. An observer that is a
	// probe.BulkObserver (probe.Stats is) keeps Run on the segment
	// engine, which reports each run-length run of identical
	// instructions as one InstrRetiredN event; any other observer makes
	// Run step instruction by instruction.
	Obs probe.Observer

	// ForceStepping pins Run to the per-instruction stepping path even
	// when the stream and harvester qualify for the analytic segment
	// engine — the counterpart of array.Machine.ForceScalar, used by
	// differential tests and A/B benchmarks.
	ForceStepping bool
}

// DefaultMaxChargeWait is the recharge bound NewRunner and
// NewMachineRunner set: 24 h, in seconds.
const DefaultMaxChargeWait = 24 * 3600

// NewRunner returns a runner over the given model.
func NewRunner(m *energy.Model) *Runner {
	return &Runner{Model: m, MaxChargeWait: DefaultMaxChargeWait}
}

// Result is the outcome of one run.
type Result struct {
	energy.Breakdown
	// Replays counts instructions that were re-executed after an outage
	// — the paper's "at most one re-execution per outage" claim means
	// Replays never exceeds Restarts.
	Replays uint64
	// Completed is false only when an error aborted the run.
	Completed bool
}

// RunContinuous executes the stream under continuous power: no outages,
// no Dead/Restore costs (Section IX, Table IV). It is the stepping loop
// with no harvester.
func (r *Runner) RunContinuous(s OpStream) Result {
	res, _ := r.stepStream(s, nil, 1)
	return res
}

// Run executes the stream under the harvested supply h, applying the
// shutdown/restore/re-execute protocol on every outage. The stream's
// activation state is tracked so Restore is priced by the number of
// columns that must be re-latched. A nil h is continuous power, as in
// RunContinuous.
//
// When the stream can describe itself as runs (RunStream) and
// segmentPlan admits the runner and harvester (a valid constant source,
// no voltage sampling, no observer or a probe.BulkObserver, ForceStepping
// off), Run dispatches to the analytic segment engine (segment.go),
// which produces a bit-identical Result without stepping the harvester
// and, for a bulk observer, the event totals stepping would report.
// Trace/solar sources, other observers, sampling and ForceStepping keep
// the per-instruction path.
func (r *Runner) Run(s OpStream, h *power.Harvester) (Result, error) {
	if rs, ok := s.(RunStream); ok {
		if plan, ok := r.segmentPlan(h); ok {
			return r.runSegments(rs, h, plan)
		}
	}
	return r.stepStream(s, h, 1)
}

// segmentPlan reports whether a run of a RunStream under h may take the
// segment engine, with h's closed-form plan if so: ForceStepping is
// off, the observer is absent or a probe.BulkObserver, and h is a valid
// constant source without voltage sampling. An invalid harvester steps,
// which reports its error together with the initial outage event.
func (r *Runner) segmentPlan(h *power.Harvester) (power.ConstantPlan, bool) {
	if r.ForceStepping || h == nil || h.SamplingEnabled() || h.Validate() != nil {
		return power.ConstantPlan{}, false
	}
	if _, bulk := r.Obs.(probe.BulkObserver); probe.Enabled(r.Obs) && !bulk {
		return power.ConstantPlan{}, false
	}
	return h.Plan()
}

// RunWithCheckpointInterval executes the stream under harvester h, but
// commits the architectural checkpoint (PC write + parity flip) only
// every interval instructions, exploring the trade-off Section IV-D
// discusses: "doing so more often results in less work potentially lost
// on shut-down, however this also increases the checkpointing overhead...
// it is possible that MOUSE would be more energy efficient performing
// checkpointing less often."
//
// The last instruction of each interval-instruction region pays its
// Backup in the same draw as its energy; the others pay none. An outage
// rolls execution back to the last checkpoint: the region is
// re-performed from its start as Dead work (each further outage restarts
// that re-run), then the interrupted instruction is retried. This is
// correct only because the re-executed region re-issues its own preset
// writes, which our instruction streams carry explicitly (the paper's
// "additional presetting operations"). A region that cannot complete in
// one discharge window fails with ErrNonTermination, under the same
// inequality lint.Certify applies statically.
//
// interval = 1 is MOUSE's per-instruction checkpointing and returns
// exactly Run's Result; longer intervals always take the stepping path.
func (r *Runner) RunWithCheckpointInterval(s OpStream, h *power.Harvester, interval int) (Result, error) {
	if interval == 1 {
		return r.Run(s, h)
	}
	if interval < 1 {
		return Result{}, fmt.Errorf("%w (got %d)", ErrBadInterval, interval)
	}
	return r.stepStream(s, h, interval)
}

// regionOp is an instruction committed since the last checkpoint, with
// the energy its replay draws (compute only: the region's last
// instruction, the only one that pays Backup, commits the checkpoint).
type regionOp struct {
	op energy.Op
	e  float64
}

// drain is the part of a cycle's cost c that the cycle's own harvest hc
// cannot pay. A surplus is not banked: the buffer may sit at VMax,
// where the clamp discards it.
func drain(c, hc float64) float64 {
	if hc >= c {
		return 0
	}
	return c - hc
}

// nonTermination is the error for an attempt that can never finish: the
// restore plus the region through the interrupted instruction, net of
// harvest, need more than one full discharge window.
func nonTermination(need, window float64) error {
	return fmt.Errorf("%w (restore plus region need %.3g J net of harvest, window holds %.3g J)", ErrNonTermination, need, window)
}

// actRegCommitFrac is the fraction of an ACT's cycle by which it has
// committed the ACT register, before its PC (Section V; phaseFor maps
// it to the µ-phase after that commit). An outage there restores that
// ACT's columns.
const actRegCommitFrac = 0.90

// target is the machine step drives: the trace layer's operation
// stream (streamTarget) or the functional layer's controller
// (controllerTarget).
type target interface {
	// peek returns the upcoming instruction's Op and the tile its
	// events name (-1 for none), or ok=false at program end. A stream
	// returns the same instruction until commit; the controller
	// re-fetches at its PC, so a restart's sensor-window rewind takes
	// effect.
	peek() (op energy.Op, tile int, ok bool)
	// commit executes the peeked instruction in full; done reports
	// that the program has ended.
	commit() (done bool, err error)
	// interrupt cuts the peeked instruction at fraction frac of its
	// cycle.
	interrupt(frac float64) error
	// restart reboots the machine once the recharge and restore of
	// cols columns are paid: its volatile state is lost and the stored
	// ACT re-issued.
	restart(cols int) error
}

// streamTarget drives an OpStream.
type streamTarget struct {
	s    OpStream
	op   energy.Op
	held bool
}

func (t *streamTarget) peek() (energy.Op, int, bool) {
	if !t.held {
		op, ok := t.s.Next()
		if !ok {
			return op, -1, false
		}
		t.op, t.held = op, true
	}
	return t.op, -1, true
}

func (t *streamTarget) commit() (bool, error) {
	t.held = false
	return false, nil
}

func (*streamTarget) interrupt(float64) error { return nil }
func (*streamTarget) restart(int) error       { return nil }

// stepStream runs step over a stream. A stream left mid-position by a
// previous failed run (for example after ErrNonTermination) must not
// silently execute only a suffix on reuse: every run starts from the
// beginning, and a failed run rewinds the stream again on the way out.
func (r *Runner) stepStream(s OpStream, h *power.Harvester, k int) (Result, error) {
	s.Reset()
	res, err := r.step(&streamTarget{s: s}, h, k)
	if err != nil {
		s.Reset()
	}
	return res, err
}

// step is the per-instruction intermittent loop behind both layers: Run
// (k = 1), RunWithCheckpointInterval (checkpoint every k instructions),
// RunContinuous and MachineRunner.Run. A nil h is continuous power on
// step's own clock. Only a stream target may take k > 1.
func (r *Runner) step(t target, h *power.Harvester, k int) (Result, error) {
	// Accounting is window-local: each outage-to-outage window folds
	// into acc and flushes into b when the window closes (restore
	// complete, error, or stream end). The per-window sums are therefore
	// independent of where in the run the window sits — the property the
	// segment engine's window cache relies on for bit-exact replay.
	var b, acc energy.Breakdown
	flush := func() {
		b.Add(acc)
		acc = energy.Breakdown{}
	}
	var replays uint64
	fail := func(err error) (Result, error) {
		flush()
		return Result{Breakdown: b, Replays: replays}, err
	}
	dt := r.Model.CycleTime()
	prices := energy.NewPrices(r.Model)
	lastLevel := 0
	actReg := 0 // columns the ACT register holds: what a restart re-latches
	active := probe.Enabled(r.Obs)
	now := 0.0 // continuous-power clock; h.Now() rules when h != nil
	// The instructions committed since the last checkpoint; always empty
	// at k = 1. An outage re-performs all of them.
	var region []regionOp

	window := 0.0 // non-termination budget, invariant across outages
	if h != nil {
		// Initial charge from an empty (or partial) buffer.
		if active {
			r.Obs.OutageBegin(h.Now())
		}
		off, err := h.ChargeUntilOn(r.MaxChargeWait)
		if err != nil {
			return fail(err)
		}
		b.OffLatency += off
		if active {
			r.Obs.OutageEnd(h.Now(), off)
		}
		// A successful charge means the harvester validated, so Cap is
		// non-nil.
		window = h.WindowEnergy()
	}

	// outage handles a power failure that cut op's draw of c joules at
	// fraction frac: the partial work is Dead, and an ACT cut past its
	// register commit has latched the register. Unless the restore plus
	// the region through the pending instruction (pend joules) can never
	// fit one discharge window, it recharges, restores the register's
	// columns and restarts the target, which closes the accounting window.
	outage := func(op energy.Op, c, frac, pend float64) error {
		if err := t.interrupt(frac); err != nil {
			return err
		}
		if op.Kind == isa.KindAct && frac >= actRegCommitFrac {
			actReg = op.ActCols
		}
		acc.DeadEnergy += c * frac
		acc.DeadLatency += dt * frac
		acc.OnLatency += dt * frac
		acc.Restarts++
		if active {
			r.Obs.PulseInterrupted(probe.Interrupt{
				T: h.Now(), Frac: frac, Kind: op.Kind, Lost: c * frac,
			})
		}
		rc := r.Model.Restore(actReg)
		hc := h.Src.Power(h.Now()) * dt
		need := drain(rc, hc) + drain(pend, hc)
		for _, p := range region {
			need += drain(p.e, hc)
		}
		if need > window {
			return nonTermination(need, window)
		}
		if active {
			r.Obs.OutageBegin(h.Now())
		}
		off, err := h.ChargeUntilOn(r.MaxChargeWait)
		if err != nil {
			return err
		}
		acc.OffLatency += off
		if active {
			r.Obs.OutageEnd(h.Now(), off)
		}
		if err := r.restore(h, rc, actReg, dt, &acc); err != nil {
			return err
		}
		if err := t.restart(actReg); err != nil {
			return err
		}
		flush()
		return nil
	}

	// Per the paper's EH-model accounting, the re-execution of an
	// interrupted instruction is Dead energy ("repeating the last
	// instruction on restart"), as is the partial energy the failed
	// attempt spent.
	retry := false
	for {
		op, tile, ok := t.peek()
		if !ok {
			break
		}
		// The region's last instruction pays the checkpoint (its Backup)
		// in the same draw.
		last := len(region)+1 == k
		p := prices.Of(op)
		ec, bk := p.Compute, 0.0
		if last {
			bk = p.Backup
		}
		e := ec + bk
		frac := 1.0
		if h != nil {
			frac = h.Draw(dt, e)
		}
		if frac < 1 {
			retry = true
			if err := outage(op, e, frac, e); err != nil {
				return fail(err)
			}
			// Roll back to the checkpoint: re-perform the region as Dead
			// work; an outage restarts the re-run.
			for i := 0; i < len(region); {
				q := region[i]
				if f := h.Draw(dt, q.e); f < 1 {
					if err := outage(q.op, q.e, f, e); err != nil {
						return fail(err)
					}
					i = 0
					continue
				}
				acc.DeadEnergy += q.e
				acc.DeadLatency += dt
				acc.OnLatency += dt
				replays++
				if active {
					r.Obs.InstrRetired(probe.Instr{
						T: h.Now(), Dur: dt, Kind: q.op.Kind, Gate: q.op.Gate,
						Tile: -1, Energy: q.e, Replay: true,
					})
				}
				if q.op.Kind == isa.KindAct {
					actReg = q.op.ActCols
				}
				i++
			}
			continue
		}
		done, err := t.commit()
		if err != nil {
			return fail(err)
		}
		if retry {
			acc.DeadEnergy += ec
			acc.DeadLatency += dt
			replays++
		} else {
			acc.ComputeEnergy += ec
		}
		acc.BackupEnergy += bk
		acc.OnLatency += dt
		acc.Instructions++
		if active {
			now += dt
			ts := now
			if h != nil {
				ts = h.Now()
			}
			r.Obs.InstrRetired(probe.Instr{
				T: ts, Dur: dt, Kind: op.Kind, Gate: op.Gate,
				Tile:   tile,
				Energy: ec, Backup: bk,
				Replay: retry,
			})
		}
		retry = false
		if op.Kind == isa.KindAct {
			actReg = op.ActCols
		}
		if p.Level >= 0 && p.Level != lastLevel {
			acc.LevelSwitches++
			lastLevel = p.Level
		}
		if last {
			region = region[:0]
		} else {
			region = append(region, regionOp{op, ec})
		}
		if done {
			break
		}
	}
	flush()
	return Result{Breakdown: b, Replays: replays, Completed: true}, nil
}

// restore pays the restart cost rc of re-latching cols columns
// (re-issuing the stored ACT instruction); if even that triggers another
// outage, it recharges and retries.
func (r *Runner) restore(h *power.Harvester, rc float64, cols int, dt float64, b *energy.Breakdown) error {
	active := probe.Enabled(r.Obs)
	var spentE, spentT float64
	for {
		frac := h.Draw(dt, rc)
		b.RestoreEnergy += rc * frac
		b.RestoreLatency += dt * frac
		b.OnLatency += dt * frac
		spentE += rc * frac
		spentT += dt * frac
		if frac >= 1 {
			if active {
				r.Obs.Restored(probe.Restore{
					T: h.Now(), Dur: spentT, Cols: cols, Energy: spentE,
				})
			}
			return nil
		}
		if active {
			r.Obs.OutageBegin(h.Now())
		}
		off, err := h.ChargeUntilOn(r.MaxChargeWait)
		if err != nil {
			return err
		}
		b.OffLatency += off
		if active {
			r.Obs.OutageEnd(h.Now(), off)
		}
	}
}

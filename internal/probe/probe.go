// Package probe is MOUSE's observability layer: a pluggable event
// interface the simulators emit into, turning a run's internal dynamics
// — instruction retirement, outages, replays, restore phases, capacitor
// voltage, and per-tile write traffic — into data instead of printf.
//
// The paper's core claims are temporal (at most one re-executed
// instruction per outage, an energy mix that shifts between compute,
// restore, and idle as harvested power varies), so the event model is
// designed around the intermittent-execution protocol: every committed
// instruction is one InstrRetired event carrying its energy and whether
// it was a post-restart replay; every brown-out is a PulseInterrupted
// followed by an OutageBegin/OutageEnd pair and a Restored event once
// the column latches are re-driven.
//
// Both execution engines honor the same event contract: the packed
// word-parallel fast path and the scalar interrupted-pulse path emit
// identical event streams for identical runs, and observers must never
// perturb simulation state — differential tests run workloads with and
// without observers attached and require byte-identical outcomes.
//
// The trace layer's analytic segment engine (package sim) has no clock
// and retires whole run-length runs of identical instructions, so it
// serves only observers that implement BulkObserver: it reports each run
// as one InstrRetiredN event and the outage events one by one, all with
// T = 0. Stats implements BulkObserver and reaches the same totals, bit
// for bit, as per-instruction events would give; TraceWriter, Multi and
// every other observer keep a run on the per-instruction stepping path.
//
// The default observer is Nop, and runners gate every emission on
// Enabled, so an unobserved (or Nop-observed) run pays one branch per
// instruction and zero allocations — verified by benchmark.
package probe

import (
	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// Instr describes one committed instruction cycle.
type Instr struct {
	// T is the simulation time at commit (seconds, end of the cycle).
	T float64
	// Dur is the cycle duration in seconds.
	Dur float64
	// Kind is the instruction kind; Gate applies to logic instructions.
	Kind isa.Kind
	Gate mtj.GateKind
	// Tile is the addressed tile, or -1 for broadcast operations and
	// trace-layer streams (which carry no tile addressing).
	Tile int
	// Energy is the instruction's compute energy and Backup its
	// checkpoint energy, in joules.
	Energy float64
	Backup float64
	// Replay marks the re-execution of an interrupted instruction after
	// a restart (accounted as Dead work).
	Replay bool
}

// Interrupt describes a power outage cutting an instruction short.
type Interrupt struct {
	// T is the moment the buffer hit the shutdown voltage.
	T float64
	// Frac is the fraction of the cycle that completed before power died.
	Frac float64
	// Kind is the interrupted instruction's kind.
	Kind isa.Kind
	// Lost is the partial energy spent on the doomed attempt (joules,
	// accounted as Dead).
	Lost float64
}

// Restore describes one completed restore phase (re-issuing the stored
// Activate Columns instruction after a restart).
type Restore struct {
	// T is the completion time; Dur the powered restore latency it took
	// (including any retries after mid-restore outages).
	T   float64
	Dur float64
	// Cols is the number of columns re-latched.
	Cols int
	// Energy is the restore energy in joules.
	Energy float64
}

// Fault describes one scheduled crash injection. It is emitted by the
// fault-injection engine (not by runners) just before the injected run
// starts, so a shared observer can correlate the outage events that
// follow with the schedule that caused them.
type Fault struct {
	// Index and Frac are the scheduled crash point: the µ-phase fraction
	// of the Index-th committed instruction.
	Index int
	Frac  float64
	// WindowJ is the pre-charged energy window realizing the crash.
	WindowJ float64
}

// FaultObserver is the optional extension an Observer implements to
// receive fault-injection schedule events. It is separate from Observer
// so existing implementations keep compiling; EmitFault delivers to
// observers that opt in.
type FaultObserver interface {
	FaultInjected(ev Fault)
}

// EmitFault delivers ev to obs when it implements FaultObserver (Multi
// fans out to every member that does); otherwise it is a no-op.
func EmitFault(obs Observer, ev Fault) {
	if f, ok := obs.(FaultObserver); ok {
		f.FaultInjected(ev)
	}
}

// BulkObserver is the optional extension an Observer implements to
// receive a run of identical retired instructions as one event, which
// lets sim.Runner keep an observed run on its analytic segment engine
// instead of stepping it instruction by instruction.
//
// InstrRetiredN stands for n InstrRetired events of kind, each with the
// given Energy, Backup and Dur, replays of them post-restart replays
// (Replay set). Implementing it promises two things: the observer reads no
// event timestamp (the engine has no clock to give), and each of its
// accumulators sums independently of how events of different kinds
// interleave (the engine reports a run's retirements at the run's end,
// after the outage events inside it). Within one kind, events still
// arrive in execution order.
type BulkObserver interface {
	Observer
	InstrRetiredN(kind isa.Kind, n, replays uint64, energy, backup, dur float64)
}

// Observer receives the typed event stream of a simulation run.
//
// Implementations must not assume any particular goroutine: the sweep
// engine shares one observer across concurrent jobs, so observers
// attached to sweeps must be safe for concurrent use (Stats is;
// TraceWriter deliberately is not — it records a single run's timeline).
type Observer interface {
	// InstrRetired is called once per committed instruction cycle.
	InstrRetired(ev Instr)
	// PulseInterrupted is called when an outage cuts a cycle at ev.Frac.
	PulseInterrupted(ev Interrupt)
	// OutageBegin marks the machine powering down at time t; OutageEnd
	// marks the buffer recharged to V_on at time t after off seconds
	// powered down. The initial charge from an empty buffer is reported
	// through the same pair (it is the run's first powered-off span).
	OutageBegin(t float64)
	OutageEnd(t, off float64)
	// Restored is called after each restore phase completes.
	Restored(ev Restore)
	// VoltageSample reports the capacitor voltage, decimated by the
	// harvester's sampling interval.
	VoltageSample(t, volts float64)
	// TileWrite reports bits cells written (or pulsed) in one tile by a
	// datapath operation — the wear-accounting feed.
	TileWrite(tile, bits int)
}

// Nop is the zero-cost default observer. Runners special-case it (via
// Enabled) so an unobserved run skips event construction entirely.
type Nop struct{}

// InstrRetired implements Observer.
func (Nop) InstrRetired(Instr) {}

// PulseInterrupted implements Observer.
func (Nop) PulseInterrupted(Interrupt) {}

// OutageBegin implements Observer.
func (Nop) OutageBegin(float64) {}

// OutageEnd implements Observer.
func (Nop) OutageEnd(float64, float64) {}

// Restored implements Observer.
func (Nop) Restored(Restore) {}

// VoltageSample implements Observer.
func (Nop) VoltageSample(float64, float64) {}

// TileWrite implements Observer.
func (Nop) TileWrite(int, int) {}

// Enabled reports whether obs is a real observer — non-nil and not the
// no-op default. Runners evaluate it once per run and gate every
// emission on the result, which is what makes the Nop default free.
func Enabled(obs Observer) bool {
	if obs == nil {
		return false
	}
	_, nop := obs.(Nop)
	return !nop
}

// First returns the single observer of a variadic option list, or Nop
// when none was passed. It keeps observer parameters source-compatible
// with pre-telemetry call sites.
func First(obs []Observer) Observer {
	for _, o := range obs {
		if o != nil {
			return o
		}
	}
	return Nop{}
}

// Multi fans every event out to several observers — e.g. Stats plus a
// TraceWriter on the same run.
type Multi []Observer

// InstrRetired implements Observer.
func (m Multi) InstrRetired(ev Instr) {
	for _, o := range m {
		o.InstrRetired(ev)
	}
}

// PulseInterrupted implements Observer.
func (m Multi) PulseInterrupted(ev Interrupt) {
	for _, o := range m {
		o.PulseInterrupted(ev)
	}
}

// OutageBegin implements Observer.
func (m Multi) OutageBegin(t float64) {
	for _, o := range m {
		o.OutageBegin(t)
	}
}

// OutageEnd implements Observer.
func (m Multi) OutageEnd(t, off float64) {
	for _, o := range m {
		o.OutageEnd(t, off)
	}
}

// Restored implements Observer.
func (m Multi) Restored(ev Restore) {
	for _, o := range m {
		o.Restored(ev)
	}
}

// VoltageSample implements Observer.
func (m Multi) VoltageSample(t, volts float64) {
	for _, o := range m {
		o.VoltageSample(t, volts)
	}
}

// TileWrite implements Observer.
func (m Multi) TileWrite(tile, bits int) {
	for _, o := range m {
		o.TileWrite(tile, bits)
	}
}

// FaultInjected implements FaultObserver, delivering to every member
// that opts in.
func (m Multi) FaultInjected(ev Fault) {
	for _, o := range m {
		EmitFault(o, ev)
	}
}

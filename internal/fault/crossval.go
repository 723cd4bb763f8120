package fault

import (
	"fmt"

	"mouse/internal/lint"
	"mouse/internal/power"
	"mouse/internal/sim"
)

// Cross-validation closes the loop between mousevet's static analysis
// and this package's dynamic evidence: the abstract interpreter claims
// a program is replay-safe and energy-feasible, the sweep and the
// intermittent simulator try to refute the claim on the very same
// instruction stream under the very same capacitor. A disagreement in
// either direction is a bug in one of the two engines, so CI runs the
// comparison over every built-in workload (the differential gate of
// the mousevet v2 issue).

// CrossResult holds one workload's verdicts from both sides of the
// differential: the static analysis (lint report, WCE certificate) and
// the dynamic evidence (crash sweep, simulated run on the capacitor).
type CrossResult struct {
	Name string

	// Static side: the full lint report under the machine's geometry and
	// capacitor at checkpoint interval 1 (the hardware checkpoints after
	// every instruction) and the per-region worst-case-energy
	// certificate.
	Static lint.Report
	Cert   *lint.Certificate

	// Dynamic side: the exhaustive crash sweep and one intermittent
	// trace-layer run on a harvester buffered by the same capacitor.
	Sweep        *Report
	SimCompleted bool
	SimErr       error

	// Intervals holds the certificate's and the simulator's verdicts at
	// checkpoint intervals 1, 8, 64 and program length + 1.
	Intervals []IntervalVerdict

	// SegmentMismatch is non-empty when the analytic segment engine and
	// the stepping engine disagree on the intermittent run — a third
	// differential axis alongside static-vs-dynamic: the two simulator
	// paths must be bit-identical on the same stream and capacitor.
	SegmentMismatch string
}

// IntervalVerdict pairs the static and dynamic energy verdicts at one
// checkpoint interval: the WCE certificate over the interval's regions
// and one RunWithCheckpointInterval run on the same capacitor.
type IntervalVerdict struct {
	Interval  int
	Feasible  bool
	Completed bool
	Err       error
}

// chargeWatts supplies the cross-validation harvester: strong enough
// to recharge the buffer in simulated minutes, yet three orders of
// magnitude below one instruction's draw per cycle, so completion is
// decided by the capacitor window alone — exactly the quantity the
// static WCE model reasons about. (A generous source would pay for
// ops out of incoming power and mask an undersized buffer.)
const chargeWatts = 1e-7

// CrossValidate runs both engines over one workload under its
// configuration and returns the paired verdicts. Sweep options bound
// the dynamic side's injection schedule; the static side is always
// exhaustive.
func CrossValidate(w Workload, opts Options) (*CrossResult, error) {
	cfg := w.Cfg
	lopts := lint.Options{
		Geometry:           lint.Geometry{Tiles: w.Tiles, Rows: w.Rows, Cols: w.Cols},
		Config:             cfg,
		CheckpointInterval: 1,
	}
	r := &CrossResult{Name: w.Name, Static: lint.Lint(w.Prog, lopts)}

	cert, err := lint.Certify(w.Prog, lopts)
	if err != nil {
		return nil, fmt.Errorf("fault: certifying %s: %w", w.Name, err)
	}
	r.Cert = cert

	// The intermittent run: same program, same capacitor, a steady
	// source. Completion here is the dynamic analogue of the WCE
	// certificate's feasibility verdict. The constant source makes the
	// stream eligible for the analytic segment engine, so this run also
	// exercises the fast path...
	s := sim.StreamFromProgram(w.Prog, w.Tiles)
	h := power.NewHarvester(power.Constant{W: chargeWatts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	runner := sim.NewRunner(w.model())
	res, runErr := runner.Run(s, h)
	r.SimCompleted = runErr == nil && res.Completed
	r.SimErr = runErr

	// ...and the stepping engine must agree with it bit for bit on the
	// very same stream (the simulator-internal differential).
	hStep := power.NewHarvester(power.Constant{W: chargeWatts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	stepper := sim.NewRunner(w.model())
	stepper.ForceStepping = true
	stepRes, stepErr := stepper.Run(s, hStep)
	switch {
	case (runErr == nil) != (stepErr == nil),
		runErr != nil && stepErr != nil && runErr.Error() != stepErr.Error():
		r.SegmentMismatch = fmt.Sprintf("segment err %v vs stepping err %v", runErr, stepErr)
	case res != stepRes:
		r.SegmentMismatch = fmt.Sprintf("segment %+v vs stepping %+v", res, stepRes)
	}

	if r.Intervals, err = intervalVerdicts(w, lopts, runner); err != nil {
		return nil, err
	}

	swp, err := Sweep(w, LayerMachine, opts)
	if err != nil {
		return nil, fmt.Errorf("fault: sweeping %s: %w", w.Name, err)
	}
	r.Sweep = swp
	return r, nil
}

// intervalVerdicts certifies and runs the workload on its capacitor and
// the steady source at the hardware's per-instruction checkpoint, two
// thinned intervals, and a single region spanning the program.
func intervalVerdicts(w Workload, lopts lint.Options, runner *sim.Runner) ([]IntervalVerdict, error) {
	cfg := w.Cfg
	s := sim.StreamFromProgram(w.Prog, w.Tiles)
	var vs []IntervalVerdict
	for _, k := range []int{1, 8, 64, len(w.Prog) + 1} {
		lopts.CheckpointInterval = k
		cert, err := lint.Certify(w.Prog, lopts)
		if err != nil {
			return nil, fmt.Errorf("fault: certifying %s at interval %d: %w", w.Name, k, err)
		}
		h := power.NewHarvester(power.Constant{W: chargeWatts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
		res, err := runner.RunWithCheckpointInterval(s, h, k)
		vs = append(vs, IntervalVerdict{
			Interval: k, Feasible: cert.Feasible, Completed: err == nil && res.Completed, Err: err,
		})
	}
	return vs, nil
}

// Disagreement returns "" when the static and dynamic verdicts are
// consistent, and a description of the first inconsistency otherwise.
// The contract is soundness in both directions where the static
// analysis claims precision, and one-sided where it is conservative:
//
//   - a lint-clean program must be crash-equivalent at every injection
//     point (static safety proof vs dynamic refutation);
//   - a sweep failure must be matched by a static error (dynamic
//     counterexample vs static proof);
//   - a feasible WCE certificate must complete on the capacitor (the
//     certificate may be infeasible while the run still completes —
//     restore overhead makes it conservative — but never the reverse);
//   - the same holds at every checkpoint interval: a feasible
//     certificate means the run completes, so a run that stops with
//     sim.ErrNonTermination must face an infeasible certificate.
func (r *CrossResult) Disagreement() string {
	staticSafe := !r.Static.HasErrors()
	dynamicSafe := r.Sweep.AllEquivalent()
	switch {
	case staticSafe && !dynamicSafe:
		f := r.Sweep.Failures()[0]
		return fmt.Sprintf("%s: mousevet proves the program safe but injection at instr %d frac %.2f broke equivalence: %s",
			r.Name, f.Index, f.Frac, f.Mismatch)
	case !staticSafe && dynamicSafe:
		return fmt.Sprintf("%s: mousevet reports errors (%v) but the exhaustive sweep is fully crash-equivalent",
			r.Name, r.Static.Err())
	}
	if r.Cert.Feasible && !r.SimCompleted {
		return fmt.Sprintf("%s: WCE certificate proves every region fits the %.3g J window, but the simulated run did not complete: %v",
			r.Name, r.Cert.WindowJ, r.SimErr)
	}
	for _, v := range r.Intervals {
		if v.Feasible && !v.Completed {
			return fmt.Sprintf("%s: at checkpoint interval %d the WCE certificate proves every region fits the window, but the run did not complete: %v",
				r.Name, v.Interval, v.Err)
		}
	}
	if r.SegmentMismatch != "" {
		return fmt.Sprintf("%s: segment engine disagrees with stepping engine: %s", r.Name, r.SegmentMismatch)
	}
	return ""
}

package lint

import (
	"fmt"

	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
)

// The worst-case-energy (WCE) pass: the paper's non-termination hazard
// (Section I) as a decidable per-region check, and the repo's one static
// forward-progress verdict. The unit of atomic progress is a checkpoint
// region — one instruction under MOUSE's per-instruction checkpointing,
// k instructions under a thinned interval. If a region's
// restore-plus-execute cost exceeds one full discharge, the device
// crashes mid-region on every attempt, replays from the region start,
// and livelocks. Certify folds the energy model over each region,
// upper-bounding activation-dependent costs with the interpreter's
// abstract activation state, and emits a certificate that either proves
// every region completes within one charge cycle or names the regions
// that cannot. The simulator's runtime guard (sim.ErrNonTermination)
// tests the same inequality.

// CertSchema identifies the certificate JSON layout.
const CertSchema = "mouse-wce/v1"

// RegionCert is the worst-case-energy bound for one checkpoint region.
type RegionCert struct {
	// Index, Start, End identify the region (see Region).
	Index int `json:"index"`
	Start int `json:"start"`
	End   int `json:"end"`
	// WCEJ is the region's worst-case energy in joules: the restart
	// restore cost plus every instruction's compute and backup energy.
	WCEJ float64 `json:"wce_j"`
	// RestoreJ is the worst-case restart cost charged to the region (the
	// costliest activation whose restore can precede a replay of it).
	RestoreJ float64 `json:"restore_j"`
	// MaxOpJ is the costliest single instruction in the region.
	MaxOpJ float64 `json:"max_op_j"`
	// Headroom is WindowJ / WCEJ (0 for a degenerate zero-cost region).
	Headroom float64 `json:"headroom"`
	// Feasible reports WCEJ <= WindowJ: a full charge completes the
	// region in one discharge, so every charge cycle commits a checkpoint.
	Feasible bool `json:"feasible"`
}

// Certificate is the per-region worst-case-energy proof for one program
// under one technology configuration and checkpoint interval.
type Certificate struct {
	// Schema is CertSchema, versioning the JSON layout for consumers
	// (ROADMAP item 5's checkpoint-placement optimizer reads this).
	Schema string `json:"schema"`
	// Config names the technology configuration priced against.
	Config string `json:"config"`
	// CapF is the energy-buffer capacitance in farads.
	CapF float64 `json:"cap_f"`
	// WindowJ is the usable energy of one full buffer discharge.
	WindowJ float64 `json:"window_j"`
	// Interval is the checkpoint interval the regions were built from.
	Interval int `json:"interval"`
	// Geometry is the deployed array shape used for broadcast costs.
	Geometry Geometry `json:"geometry"`
	// Regions holds one bound per checkpoint region, in program order.
	Regions []RegionCert `json:"regions"`
	// Feasible reports whether every region is feasible — the program
	// makes forward progress on this capacitor no matter where power
	// fails.
	Feasible bool `json:"feasible"`
	// WorstRegion is the index of the region with the least headroom
	// (-1 for an empty program).
	WorstRegion int `json:"worst_region"`
}

// Certify computes the per-region worst-case-energy certificate for the
// program. Options resolve exactly as in Lint (zero geometry → full ISA,
// nil config → Modern STT, interval < 1 → per-instruction). It fails if
// any instruction does not validate: an unencodable stream has no energy
// semantics to bound.
func Certify(prog isa.Program, opts Options) (*Certificate, error) {
	opts.Geometry = opts.geometry()
	if opts.Config == nil {
		opts.Config = mtj.ModernSTT()
	}
	if opts.CheckpointInterval < 1 {
		opts.CheckpointInterval = 1
	}
	valid := make([]bool, len(prog))
	for i := range prog {
		if err := prog[i].Validate(); err != nil {
			return nil, fmt.Errorf("lint: cannot certify: instruction %d: %w", i, err)
		}
		valid[i] = true
	}
	it := newInterp(prog, opts, valid)
	return certify(it, opts), nil
}

// certify folds the energy model over each region of a solved
// interpretation.
func certify(it *interp, opts Options) *Certificate {
	cfg := opts.Config
	m := energy.NewModel(cfg)
	if opts.Geometry.Cols < m.RowBits {
		m.RowBits = opts.Geometry.Cols
	}
	cert := &Certificate{
		Schema:      CertSchema,
		Config:      cfg.Name,
		CapF:        cfg.CapC,
		WindowJ:     power.EnergyAboveOf(cfg.CapC, cfg.CapVMax, cfg.CapVMin),
		Interval:    it.cfg.Interval,
		Geometry:    opts.Geometry,
		Feasible:    true,
		WorstRegion: -1,
	}
	prices := energy.NewPrices(m)
	for _, reg := range it.cfg.Regions {
		rc := certifyRegion(it, m, prices, reg)
		rc.Feasible = rc.WCEJ <= cert.WindowJ
		if rc.WCEJ > 0 {
			rc.Headroom = cert.WindowJ / rc.WCEJ
		} else {
			// Unreachable for well-formed regions (every instruction pays
			// at least fetch + backup), but keep the JSON marshalable.
			rc.Headroom = 0
		}
		if !rc.Feasible {
			cert.Feasible = false
		}
		if cert.WorstRegion < 0 || rc.WCEJ > cert.Regions[cert.WorstRegion].WCEJ {
			cert.WorstRegion = rc.Index
		}
		cert.Regions = append(cert.Regions, rc)
	}
	return cert
}

// certifyRegion bounds one region: walk its instructions from the
// fixpoint entry state, pricing activation-dependent costs by the
// abstract activation's pair upper bound, and charge the costliest
// restore that can precede a replay (the region-entry activation or any
// ACT the partial attempt may have executed — the restart protocol
// restores the last *executed* ACT, not the last checkpointed one).
func certifyRegion(it *interp, m *energy.Model, prices *energy.Prices, reg Region) RegionCert {
	rc := RegionCert{Index: reg.Index, Start: reg.Start, End: reg.End}
	s := it.regionEntry(reg).clone()
	restoreCols := s.act.ubPairs
	var sum float64
	for i := reg.Start; i < reg.End; i++ {
		in := &it.prog[i]
		var op energy.Op
		switch in.Kind {
		case isa.KindAct:
			a := actOf(decodeAct(in), it.geom)
			op = energy.OpOf(*in, a.ubPairs, a.ubPairs)
			if a.ubPairs > restoreCols {
				restoreCols = a.ubPairs
			}
		default:
			op = energy.OpOf(*in, s.act.ubPairs, 0)
		}
		p := prices.Of(op)
		e := p.Compute + p.Backup
		sum += e
		if e > rc.MaxOpJ {
			rc.MaxOpJ = e
		}
		it.transfer(&s, i)
	}
	rc.RestoreJ = m.Restore(restoreCols)
	rc.WCEJ = rc.RestoreJ + sum
	return rc
}

// checkWCE is the rule wrapper over Certify: it re-uses the pass's
// fixpoint solution and reports each infeasible region as an error (the
// program livelocks there) and thin headroom as a warning, at every
// checkpoint interval. Per-region findings of each severity are capped;
// a program-level summary carries the total.
func checkWCE(p *Pass) {
	if !p.AllValid || len(p.Prog) == 0 {
		return
	}
	cert := certify(p.interp(), p.Opts)
	const maxReports = 8
	infeasible, thin := 0, 0
	for _, rc := range cert.Regions {
		switch {
		case !rc.Feasible:
			infeasible++
			if infeasible <= maxReports {
				p.Report("wce", rc.Start, Error,
					"checkpoint region [%d,%d) cannot complete in one discharge window: worst-case energy %.3g J (restore %.3g J + execution) exceeds the %.3g J window, so the program livelocks here",
					rc.Start, rc.End, rc.WCEJ, rc.RestoreJ, cert.WindowJ)
			}
		case rc.Headroom < p.Opts.MinHeadroom:
			thin++
			if thin <= maxReports {
				p.Report("wce", rc.Start, Warning,
					"checkpoint region [%d,%d) has only %.2fx energy headroom (window %.3g J over worst case %.3g J); below the %.2gx margin",
					rc.Start, rc.End, rc.Headroom, cert.WindowJ, rc.WCEJ, p.Opts.MinHeadroom)
			}
		}
	}
	if infeasible > maxReports {
		p.Report("wce", -1, Error,
			"%d of %d checkpoint regions exceed the %.3g J discharge window (first %d reported)",
			infeasible, len(cert.Regions), cert.WindowJ, maxReports)
	}
	if thin > maxReports {
		p.Report("wce", -1, Warning,
			"%d of %d checkpoint regions have less than %.2gx energy headroom (first %d reported)",
			thin, len(cert.Regions), p.Opts.MinHeadroom, maxReports)
	}
}

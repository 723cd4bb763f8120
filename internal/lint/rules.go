package lint

import (
	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// The built-in rule suite. The dataflow rules (def-use, dead-write,
// activation, replay, wce) consume the pass's shared fixpoint abstract
// interpretation (interp.go), which accounts for the loop edge — MOUSE
// programs repeat forever (Section IV-B) — and for checkpoint-region
// replay. The paper sections each rule enforces are catalogued in
// DESIGN.md.
func init() {
	Register(Rule{ID: "bounds", Doc: "tile/row/column references fit the deployed array geometry", Check: checkBounds})
	Register(Rule{ID: "def-use", Doc: "values are defined before use: buffer read before written, gate outputs preset on every pass", Check: checkDefUse})
	Register(Rule{ID: "dead-write", Doc: "no value is overwritten before anything reads it, including across the loop edge", Check: checkDeadWrite})
	Register(Rule{ID: "activation", Doc: "column activations exist, are non-empty, and are used before replaced", Check: checkActivation})
	Register(Rule{ID: "replay", Doc: "checkpoint regions are WAR- and activation-hazard-free and safe to replay", Check: checkReplay})
	Register(Rule{ID: "wce", Doc: "every checkpoint region's worst-case energy fits one discharge window", Check: checkWCE})
}

// checkBounds validates addresses against the deployed geometry. The
// ISA validator bounds them to the 512×1024×1024 address space; a real
// machine is smaller, and a reference beyond it either errors out or
// silently reads nothing at inference time.
func checkBounds(p *Pass) {
	g := p.Opts.Geometry
	for i := range p.Prog {
		if !p.Valid[i] {
			continue
		}
		in := &p.Prog[i]
		badRow := func(row uint16, what string) {
			if int(row) >= g.Rows {
				p.Report("bounds", i, Error, "%s row %d is beyond the %d-row geometry", what, row, g.Rows)
			}
		}
		switch in.Kind {
		case isa.KindRead, isa.KindWrite:
			if int(in.Tile) >= g.Tiles {
				p.Report("bounds", i, Error, "tile %d is beyond the %d-tile geometry", in.Tile, g.Tiles)
			}
			badRow(in.Row, in.Kind.String())
			if in.Kind == isa.KindWrite && in.Rot != 0 && int(in.Rot) >= g.Cols {
				p.Report("bounds", i, Warning, "rotation %d wraps at the %d-column machine width", in.Rot, g.Cols)
			}
		case isa.KindPreset:
			badRow(in.Row, "preset")
		case isa.KindLogic:
			for k := 0; k < in.NumInputs(); k++ {
				badRow(in.In[k], "input")
			}
			badRow(in.Out, "output")
		case isa.KindAct:
			if !in.Broadcast && int(in.Tile) >= g.Tiles {
				p.Report("bounds", i, Error, "tile %d is beyond the %d-tile geometry", in.Tile, g.Tiles)
			}
			if in.Ranged {
				if int(in.Start) >= g.Cols {
					p.Report("bounds", i, Error, "start column %d is beyond the %d-column geometry", in.Start, g.Cols)
				}
			} else {
				for _, c := range in.Cols {
					if int(c) >= g.Cols {
						p.Report("bounds", i, Error, "column %d is beyond the %d-column geometry", c, g.Cols)
					}
				}
			}
		}
	}
}

// checkDefUse enforces the define-before-use discipline of Sections II-B
// and VI over every pass of the loop, using the fixpoint entry states:
// a gate's output row must hold the gate's preset state when the gate
// fires (threshold switching is conditional on it) — on the first pass
// AND on every later one, where the previous pass's leftovers are what
// the row holds; the memory buffer must be loaded by a read before a
// write stores it; and reads of rows no instruction ever writes are
// surfaced as infos (they are usually intentional preloaded operands,
// but a typo'd row number looks exactly the same).
func checkDefUse(p *Pass) {
	// Whole-program may-write sets for the preloaded-operand heuristic: a
	// row counts as program-written if any pass writes it, wherever in
	// the stream that write sits relative to the use.
	broadcastWritten := make(map[int]bool) // presets and gate outputs
	tileWritten := make(map[[2]int]bool)   // buffer writes to (tile, row)
	rowTileWritten := make(map[int]bool)   // buffer writes to the row in any tile
	for i := range p.Prog {
		if !p.Valid[i] {
			continue
		}
		switch in := &p.Prog[i]; in.Kind {
		case isa.KindPreset:
			broadcastWritten[int(in.Row)] = true
		case isa.KindLogic:
			broadcastWritten[int(in.Out)] = true
		case isa.KindWrite:
			tileWritten[[2]int{int(in.Tile), int(in.Row)}] = true
			rowTileWritten[int(in.Row)] = true
		}
	}

	reportedUndef := make(map[int]bool) // one preloaded-operand info per row
	undefInfo := func(i, row int, what string) {
		if reportedUndef[row] {
			return
		}
		reportedUndef[row] = true
		p.Report("def-use", i, Info, "%s row %d was never written by this program (preloaded operand?)", what, row)
	}

	it := p.interp()
	for i := range p.Prog {
		if !p.Valid[i] {
			continue
		}
		in := &p.Prog[i]
		s := it.entryAt(i)
		switch in.Kind {
		case isa.KindRead:
			if !broadcastWritten[int(in.Row)] && !tileWritten[[2]int{int(in.Tile), int(in.Row)}] {
				undefInfo(i, int(in.Row), "read")
			}
		case isa.KindWrite:
			if s.buf != bufDef {
				p.Report("def-use", i, Error, "writes the memory buffer to tile %d row %d before any read loads the buffer", in.Tile, in.Row)
			}
		case isa.KindLogic:
			spec := mtj.Spec(in.Gate)
			for k := 0; k < spec.Inputs; k++ {
				r := int(in.In[k])
				if !broadcastWritten[r] && !rowTileWritten[r] {
					undefInfo(i, r, "input")
				}
			}
			out := int(in.Out)
			switch d := s.rows[out]; {
			case d.val == rowBottom:
				p.Report("def-use", i, Error, "output row %d is not preset before %s fires (gate switching depends on the preset state)", out, in.Gate)
			case d.val == rowTop:
				p.Report("def-use", i, Error, "output row %d is not preset on every pass before %s fires (uninitialized on the first pass, or a stale value left by the previous pass)", out, in.Gate)
			case d.val == rowGated:
				p.Report("def-use", i, Error, "output row %d still holds a previous gate result when %s fires; preset it first", out, in.Gate)
			case d.state != spec.Preset:
				p.Report("def-use", i, Error, "output row %d is preset with PRE%d but %s requires PRE%d", out, d.state.Bit(), in.Gate, spec.Preset.Bit())
			case !d.curAct:
				p.Report("def-use", i, Warning, "activation changed between the preset of row %d and %s; newly active columns are not preset", out, in.Gate)
			}
		}
	}
}

// locCovers reports whether a later write w2 definitely replaces
// everything an earlier write w1 stored.
func locCovers(w2, w1 [2]int) bool {
	if w1[0] == isa.LocBuffer || w2[0] == isa.LocBuffer {
		return w1[0] == w2[0]
	}
	if w1[1] != w2[1] {
		return false
	}
	if w1[0] == isa.LocAnyTile {
		return w2[0] == isa.LocAnyTile
	}
	return w2[0] == isa.LocAnyTile || w2[0] == w1[0]
}

// checkDeadWrite finds values overwritten before any instruction reads
// them — wasted energy and wasted discharge-window budget on a platform
// where every write is paid for twice (the operation and its wear).
// Array values still live at the end of the stream are never flagged:
// they may be the program's outputs, which the host reads. The memory
// buffer is different — it is controller state no host observes — so a
// buffer load still pending at the end of the stream is checked against
// the *next* pass of the loop: if the program's own restart overwrites
// it before storing it, the load was dead. An intervening ACT makes
// broadcast-row coverage uncertain (the two writes may land on
// different column sets), so such pending writes are conservatively
// treated as read.
func checkDeadWrite(p *Pass) {
	type pending struct {
		idx  int
		loc  [2]int
		read bool
	}
	var pendings []pending
	for i := range p.Prog {
		if !p.Valid[i] {
			continue
		}
		in := &p.Prog[i]
		if in.Kind == isa.KindAct {
			for k := range pendings {
				if pendings[k].loc[0] == isa.LocAnyTile {
					pendings[k].read = true
				}
			}
			continue
		}
		reads, writes := in.Effects()
		for _, r := range reads {
			for k := range pendings {
				if isa.Overlap(pendings[k].loc, r) {
					pendings[k].read = true
				}
			}
		}
		for _, w := range writes {
			kept := pendings[:0]
			for _, pd := range pendings {
				if locCovers(w, pd.loc) {
					if !pd.read {
						switch {
						case pd.loc[0] == isa.LocBuffer:
							p.Report("dead-write", pd.idx, Warning, "the memory buffer loaded here is overwritten at instruction %d before any write stores it", i)
						case pd.loc[0] == isa.LocAnyTile:
							p.Report("dead-write", pd.idx, Warning, "row %d written here is overwritten at instruction %d before anything reads it", pd.loc[1], i)
						default:
							p.Report("dead-write", pd.idx, Warning, "tile %d row %d written here is overwritten at instruction %d before anything reads it", pd.loc[0], pd.loc[1], i)
						}
					}
					continue // replaced either way
				}
				kept = append(kept, pd)
			}
			pendings = append(kept, pending{idx: i, loc: w})
		}
	}

	// Loop edge: walk the stream once more with the surviving pendings.
	// Only buffer pendings are reportable here (array state at stream end
	// may be host-visible output); no new pendings accumulate, so this
	// terminates the moment the carried set drains.
	for i := range p.Prog {
		if len(pendings) == 0 {
			break
		}
		if !p.Valid[i] {
			continue
		}
		in := &p.Prog[i]
		if in.Kind == isa.KindAct {
			for k := range pendings {
				if pendings[k].loc[0] == isa.LocAnyTile {
					pendings[k].read = true
				}
			}
			continue
		}
		reads, writes := in.Effects()
		for _, r := range reads {
			for k := range pendings {
				if isa.Overlap(pendings[k].loc, r) {
					pendings[k].read = true
				}
			}
		}
		for _, w := range writes {
			kept := pendings[:0]
			for _, pd := range pendings {
				if locCovers(w, pd.loc) {
					if !pd.read && pd.loc[0] == isa.LocBuffer {
						p.Report("dead-write", pd.idx, Warning, "the memory buffer loaded here is overwritten at instruction %d on the next pass before any write stores it", i)
					}
					continue
				}
				kept = append(kept, pd)
			}
			pendings = kept
		}
	}
}

// checkActivation enforces the column-activation discipline of Section
// IV-B: presets and gates do nothing without a live activation, an
// activation whose columns all fall outside the machine activates
// nothing, and — because ACT replaces rather than accumulates (the
// Section IV-D recovery invariant) — an ACT that is itself replaced
// before any preset or gate uses it configured nothing at all. The
// replaced-before-use check follows the loop edge: a trailing ACT is
// live into the next pass, and is dead only if the next pass's first
// ACT replaces it before the next pass's first preset or gate.
func checkActivation(p *Pass) {
	g := p.Opts.Geometry
	live := false
	lastAct := -1
	usedSinceAct := false
	firstAct, firstUse := -1, -1
	for i := range p.Prog {
		if !p.Valid[i] {
			continue
		}
		in := &p.Prog[i]
		switch in.Kind {
		case isa.KindPreset, isa.KindLogic:
			if !live {
				p.Report("activation", i, Error, "%s executes with no live column activation: no ACT precedes it, so it touches nothing", in.Kind)
			}
			usedSinceAct = true
			if firstUse < 0 {
				firstUse = i
			}
		case isa.KindAct:
			if lastAct >= 0 && !usedSinceAct {
				p.Report("activation", lastAct, Warning, "activation is replaced at instruction %d before any preset or logic uses it", i)
			}
			declared := in.ActiveColumns()
			effective := 0
			for _, c := range declared {
				if int(c) < g.Cols {
					effective++
				}
			}
			if effective == 0 {
				p.Report("activation", i, Warning, "activates no columns within the %d-column geometry", g.Cols)
			} else if effective < len(declared) {
				p.Report("activation", i, Warning, "only %d of %d activated columns fall inside the %d-column geometry", effective, len(declared), g.Cols)
			}
			if firstAct < 0 {
				firstAct = i
			}
			lastAct = i
			usedSinceAct = false
			live = effective > 0
		}
	}
	// Loop edge: the stream's last ACT stays live into the next pass. It
	// is dead only when the next pass replaces it (at its first ACT)
	// without any preset or gate having used it first.
	if lastAct >= 0 && !usedSinceAct && !(firstUse >= 0 && firstUse < firstAct) {
		p.Report("activation", lastAct, Warning, "activation is replaced at instruction %d on the next pass before any preset or logic uses it", firstAct)
	}
}

// checkReplay verifies the Section IV-D replay-safety condition for the
// configured checkpoint interval. A region replayed from its last
// checkpoint must be free of two hazard classes:
//
//   - WAR hazards: a replayed read observes a value the first partial
//     execution already clobbered (isa.FindWARHazards).
//   - Activation-restore hazards: the restart protocol restores the last
//     *executed* ACT, not the region-entry configuration; if the region
//     issues an ACT after presets or gates that ran under the entry
//     configuration, a crash after that ACT replays those instructions
//     under the wrong column set. The fixpoint entry state decides
//     whether the restored configuration provably matches.
//
// With MOUSE's per-instruction checkpointing (interval ≤ 1) every
// region is a single instruction and trivially safe; the rule exists
// for checkpoint-thinned deployments (sim.RunWithCheckpointInterval's
// model).
func checkReplay(p *Pass) {
	k := p.Opts.CheckpointInterval
	if k <= 1 || !p.AllValid {
		return
	}
	it := p.interp()
	for _, reg := range it.cfg.Regions {
		for _, h := range isa.FindWARHazards(p.Prog[reg.Start:reg.End]) {
			abs := isa.Hazard{ReadAt: reg.Start + h.ReadAt, WriteAt: reg.Start + h.WriteAt, Tile: h.Tile, Row: h.Row}
			p.Report("replay", abs.WriteAt, Error,
				"checkpoint region [%d,%d) is not replay-safe: %s", reg.Start, reg.End, abs)
		}
		checkActReplay(p, it, reg)
	}
}

// checkActReplay reports activation-restore hazards in one region: it
// finds the activation-dependent instructions that precede the region's
// first ACT (during a replay they re-execute under the restored — last
// executed — configuration instead of the entry one) and checks every
// in-region ACT that could be the restored configuration against the
// region's fixpoint entry activation.
func checkActReplay(p *Pass, it *interp, reg Region) {
	firstAct := -1
	for i := reg.Start; i < reg.End; i++ {
		if p.Prog[i].Kind == isa.KindAct {
			firstAct = i
			break
		}
	}
	if firstAct < 0 {
		return
	}
	firstReader := -1
	for i := reg.Start; i < firstAct; i++ {
		if r, _ := p.Prog[i].ActEffects(); r {
			firstReader = i
			break
		}
	}
	if firstReader < 0 {
		return
	}
	entry := it.regionEntry(reg)
	for j := firstAct; j < reg.End; j++ {
		in := &p.Prog[j]
		if in.Kind != isa.KindAct {
			continue
		}
		restored := actOf(decodeAct(in), it.geom)
		switch {
		case entry.act.kind == actExact && entry.act.sameConfig(restored):
			// The region re-establishes the configuration it entered with
			// (the re-preset-after-checkpoint idiom): a replay under the
			// restored ACT is identical to the original execution.
		case entry.act.kind == actExact:
			p.Report("replay", j, Error,
				"checkpoint region [%d,%d) is not replay-safe: a crash after this ACT restores its configuration on restart, and the replayed instruction %d then executes under it instead of the activation the region entered with (the restart protocol restores the last executed ACT, Section IV-D)",
				reg.Start, reg.End, firstReader)
		default:
			p.Report("replay", j, Warning,
				"checkpoint region [%d,%d) may not be replay-safe: the region-entry activation cannot be pinned to a single configuration, so a crash after this ACT may replay instruction %d under a different column set",
				reg.Start, reg.End, firstReader)
		}
	}
}

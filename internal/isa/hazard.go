package isa

import "fmt"

// Re-execution safety analysis. MOUSE checkpoints after every
// instruction, so only single instructions are ever replayed — and
// single gates are idempotent by device physics (Section V-A). The paper
// notes that replaying *multiple* instructions is a different matter:
// "over the course of multiple instructions, temporary values can be
// created... periodically overwritten. Repeating multiple instructions
// on startup would require some method for ensuring correctness of
// these temporary values" (Section IV-D).
//
// The precise condition is the write-after-read (WAR) hazard: a region
// of straight-line MOUSE code replays to the same final state if and
// only if no instruction writes a location that an earlier instruction
// of the region read — otherwise the replayed read sees the clobbered
// value. FindWARHazards locates every such pair, letting a
// checkpoint-thinning compiler (sim.RunWithCheckpointInterval's model)
// place commits only at hazard-free boundaries.

// Hazard is one write-after-read pair that makes a region unsafe to
// replay.
type Hazard struct {
	// ReadAt and WriteAt are instruction indices with ReadAt < WriteAt.
	ReadAt, WriteAt int
	// Tile and Row locate the clobbered cell row (Tile is -1 for
	// broadcast operations, which touch every data tile).
	Tile, Row int
}

func (h Hazard) String() string {
	loc := fmt.Sprintf("tile %d row %d", h.Tile, h.Row)
	if h.Tile < 0 {
		loc = fmt.Sprintf("row %d (broadcast)", h.Row)
	}
	return fmt.Sprintf("instruction %d reads %s; instruction %d overwrites it", h.ReadAt, loc, h.WriteAt)
}

// Location conventions for the Effects model: broadcast operations use
// tile = LocAnyTile (they touch every data tile); the memory buffer is
// tile = LocBuffer, row 0.
const (
	LocAnyTile = -1
	LocBuffer  = -2
)

// Effects lists the (tile, row) locations an instruction reads and
// writes, in the LocAnyTile/LocBuffer convention. This is the shared
// dataflow model behind the WAR-hazard analysis and the lint package's
// def-before-use and dead-write rules. Note that a logic gate reads its
// output row as well as its inputs: threshold switching depends on the
// preset state.
func (in *Instruction) Effects() (reads, writes [][2]int) {
	return rw(in)
}

// ActEffects reports whether the instruction depends on (reads) or
// replaces (writes) the machine's active-column configuration — the
// peripheral state that FindWARHazards deliberately ignores, because the
// Section IV-D restart protocol restores it from the duplicated ACT
// register rather than by replay. That restore is exactly why the
// configuration matters to a *region* replay analysis: after a crash the
// machine resumes under the most recently *executed* ACT, which may not
// be the configuration the region entered with. Presets and logic
// operations read the configuration (they touch only active columns);
// ACT replaces it wholesale; memory transfers are column-addressed by
// the instruction itself and ignore it.
func (in *Instruction) ActEffects() (reads, writes bool) {
	switch in.Kind {
	case KindPreset, KindLogic:
		return true, false
	case KindAct:
		return false, true
	}
	return false, false
}

// rw lists the rows an instruction reads and writes. Broadcast
// operations use tile = -1 (they conflict with every tile). The memory
// buffer is modelled as tile = -2, row = 0.
func rw(in *Instruction) (reads, writes [][2]int) {
	const (
		anyTile = LocAnyTile
		buffer  = LocBuffer
	)
	switch in.Kind {
	case KindRead:
		reads = append(reads, [2]int{int(in.Tile), int(in.Row)})
		writes = append(writes, [2]int{buffer, 0})
	case KindWrite:
		reads = append(reads, [2]int{buffer, 0})
		writes = append(writes, [2]int{int(in.Tile), int(in.Row)})
	case KindPreset:
		writes = append(writes, [2]int{anyTile, int(in.Row)})
	case KindLogic:
		for i := 0; i < in.NumInputs(); i++ {
			reads = append(reads, [2]int{anyTile, int(in.In[i])})
		}
		// A gate both reads and writes its output (threshold switching
		// depends on the preset state).
		reads = append(reads, [2]int{anyTile, int(in.Out)})
		writes = append(writes, [2]int{anyTile, int(in.Out)})
	case KindAct:
		// Peripheral configuration only; the restart protocol restores
		// it independently of replay.
	}
	return reads, writes
}

// Overlap reports whether two (tile, row) locations, in the
// LocAnyTile/LocBuffer convention, can alias.
func Overlap(a, b [2]int) bool {
	if a[1] != b[1] && !(a[0] == -2 && b[0] == -2) {
		return false
	}
	if a[0] == -2 || b[0] == -2 {
		return a[0] == b[0]
	}
	return a[0] == -1 || b[0] == -1 || a[0] == b[0]
}

// definitelyCovers reports whether a prior write w certainly supplies
// the value a read r observes: a broadcast-row write covers any read of
// that row; a tile-specific write covers only the identical location.
func definitelyCovers(w, r [2]int) bool {
	if w[0] == -2 || r[0] == -2 {
		return w[0] == -2 && r[0] == -2
	}
	if w[1] != r[1] {
		return false
	}
	if w[0] == -1 {
		return true
	}
	return w[0] == r[0] && r[0] != -1
}

// FindWARHazards returns every write-after-read hazard in the program
// region, in instruction order. An empty result means the whole region
// can be replayed from its start with no corrective presets: every value
// a replayed instruction reads is either untouched region input or is
// re-established by the replayed writes that precede it.
//
// Only *exposed* reads matter — a read preceded (within the region) by a
// write that definitely covers its location is safe, because the replay
// re-performs that write first. This is why the idiomatic
// preset-then-gate sequence is hazard-free even though the gate reads
// its preset output row.
func FindWARHazards(region Program) []Hazard {
	type pendingRead struct {
		at  int
		loc [2]int
	}
	var (
		hazards []Hazard
		exposed []pendingRead
		written [][2]int
	)
	for i := range region {
		reads, writes := rw(&region[i])
		for _, w := range writes {
			for _, r := range exposed {
				if Overlap(r.loc, w) {
					hazards = append(hazards, Hazard{
						ReadAt: r.at, WriteAt: i,
						Tile: w[0], Row: w[1],
					})
				}
			}
		}
		for _, r := range reads {
			covered := false
			for _, w := range written {
				if definitelyCovers(w, r) {
					covered = true
					break
				}
			}
			if !covered {
				exposed = append(exposed, pendingRead{at: i, loc: r})
			}
		}
		written = append(written, writes...)
	}
	return hazards
}

// SafeCheckpointBoundaries partitions the program into maximal replay-
// safe regions: it returns the instruction indices (ascending, always
// ending with len(p)) where a checkpoint must be committed so that no
// replay window contains a WAR hazard. With per-instruction
// checkpointing (MOUSE's design point) every boundary is trivially safe;
// this computes how far apart checkpoints *could* be pushed.
func SafeCheckpointBoundaries(p Program) []int {
	var bounds []int
	start := 0
	for start < len(p) {
		end := start + 1
		for end < len(p) {
			if len(FindWARHazards(p[start:end+1])) > 0 {
				break
			}
			end++
		}
		bounds = append(bounds, end)
		start = end
	}
	if len(bounds) == 0 {
		bounds = append(bounds, 0)
	}
	return bounds
}

// WearProfile counts, per addressed location, how many cell writes one
// pass of the program performs — the input to an endurance estimate.
// STT-MRAM's ~10¹⁵-cycle write endurance is one of the technology's
// advantages the paper highlights over RRAM (Section X); because MOUSE
// re-presets its scratch rows on every inference, the hottest row bounds
// the array's lifetime in inferences.
type WearProfile struct {
	// RowWrites[row] counts broadcast writes (presets and gate outputs)
	// landing on the row in every active column.
	RowWrites map[int]int64
	// TileRowWrites[tile<<16|row] counts buffer writes to a specific
	// tile's row.
	TileRowWrites map[int]int64
}

// Wear analyzes one program pass.
func Wear(p Program) WearProfile {
	w := WearProfile{
		RowWrites:     make(map[int]int64),
		TileRowWrites: make(map[int]int64),
	}
	for i := range p {
		switch p[i].Kind {
		case KindPreset:
			w.RowWrites[int(p[i].Row)]++
		case KindLogic:
			// The gate may switch its output cell.
			w.RowWrites[int(p[i].Out)]++
		case KindWrite:
			w.TileRowWrites[int(p[i].Tile)<<16|int(p[i].Row)]++
		}
	}
	return w
}

// Hottest returns the most-written row (broadcast or tile-specific) and
// its per-pass write count.
func (w WearProfile) Hottest() (desc string, writes int64) {
	for row, n := range w.RowWrites {
		if n > writes {
			writes = n
			desc = fmt.Sprintf("row %d (broadcast)", row)
		}
	}
	for key, n := range w.TileRowWrites {
		if n > writes {
			writes = n
			desc = fmt.Sprintf("tile %d row %d", key>>16, key&0xFFFF)
		}
	}
	return desc, writes
}

// LifetimeInferences returns how many program passes the array endures
// before its hottest cells reach the given write endurance (e.g. 1e15
// for STT-MRAM).
func (w WearProfile) LifetimeInferences(endurance float64) float64 {
	_, hottest := w.Hottest()
	if hottest == 0 {
		return endurance
	}
	return endurance / float64(hottest)
}

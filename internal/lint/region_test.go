package lint

import (
	"strings"
	"testing"

	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/sim"
)

func TestIntervalSet(t *testing.T) {
	// Duplicates collapse and adjacent addresses merge into one interval.
	s := NewIntervalSet([]uint16{4, 2, 3, 3, 9})
	if s.Count() != 4 || s.String() != "2-4,9" {
		t.Errorf("set = %s (count %d), want 2-4,9 (4)", s, s.Count())
	}
	for _, a := range []uint16{2, 3, 4, 9} {
		if !s.Contains(a) {
			t.Errorf("missing %d", a)
		}
	}
	for _, a := range []uint16{0, 1, 5, 8, 10} {
		if s.Contains(a) {
			t.Errorf("spurious %d", a)
		}
	}
	if s.CountBelow(4) != 2 {
		t.Errorf("CountBelow(4) = %d, want 2", s.CountBelow(4))
	}

	// Strided ranges enumerate; unit stride is a single interval.
	r := NewIntervalRange(0, 4, 2)
	if r.String() != "0,2,4,6" {
		t.Errorf("strided = %s", r)
	}
	if u := NewIntervalRange(0, 8, 1); u.String() != "0-7" {
		t.Errorf("unit-stride = %s", u)
	}

	// Union merges overlap and adjacency, and is insensitive to order.
	u := s.Union(NewIntervalSet([]uint16{5, 6}))
	if u.String() != "2-6,9" {
		t.Errorf("union = %s", u)
	}
	if !u.Equal(NewIntervalSet([]uint16{9, 6, 5, 4, 3, 2})) {
		t.Errorf("Equal failed for %s", u)
	}
	if !NewIntervalSet(nil).Empty() || u.Empty() {
		t.Error("Empty misreports")
	}
}

func TestJoinLattice(t *testing.T) {
	// Row join: equal stays, differing polarity or kind rises to top,
	// curAct only survives when both sides kept it.
	p0 := rowInfo{val: rowPreset, state: mtj.P, curAct: true}
	if got := joinRow(p0, p0); got != p0 {
		t.Errorf("join of equal rows changed: %+v", got)
	}
	p1 := rowInfo{val: rowPreset, state: mtj.AP, curAct: true}
	if got := joinRow(p0, p1); got.val != rowTop {
		t.Errorf("conflicting presets should top out: %+v", got)
	}
	g := rowInfo{val: rowGated, curAct: false}
	if got := joinRow(p0, g); got.val != rowTop || got.curAct {
		t.Errorf("preset ⊔ gated = %+v, want top with curAct=false", got)
	}

	// Activation join: none is the identity modulo maybeOff; differing
	// exact configurations keep only the upper bounds.
	a := actOf(actInstr{broadcast: true, cols: NewIntervalSet([]uint16{0, 1})}, Geometry{Tiles: 2, Rows: 8, Cols: 8})
	if a.ubPairs != 4 {
		t.Fatalf("broadcast over 2 tiles: ubPairs = %d, want 4", a.ubPairs)
	}
	j := joinAct(actVal{}, a)
	if j.kind != actExact || !j.maybeOff {
		t.Errorf("none ⊔ exact = %+v, want exact with maybeOff", j)
	}
	b := actOf(actInstr{broadcast: true, cols: NewIntervalSet([]uint16{0, 1, 2})}, Geometry{Tiles: 2, Rows: 8, Cols: 8})
	j = joinAct(a, b)
	if j.kind != actTop || j.ubPairs != 6 || j.cols.String() != "0-2" {
		t.Errorf("exact ⊔ exact' = %+v, want top with max pairs and union cols", j)
	}

	// State join is monotone and reports stability: joining a state with
	// itself changes nothing.
	s := initialState()
	o := initialState()
	o.buf = bufDef
	o.rows[3] = p0
	if !s.join(&o) {
		t.Fatal("join into bottom reported no change")
	}
	if s.buf != bufTop {
		t.Errorf("undef ⊔ def buffer = %v, want top", s.buf)
	}
	if s.rows[3].val != rowTop {
		// Row 3 is bottom on the left (absent = never written on that
		// path), preset on the right: the join cannot keep the preset.
		t.Errorf("bottom ⊔ preset row = %+v, want top", s.rows[3])
	}
	snapshot := s.clone()
	if s.join(&snapshot) {
		t.Error("self-join reported a change (join is not idempotent)")
	}
}

func TestBuildCFGPartitions(t *testing.T) {
	cases := []struct {
		n, interval int
		regions     int
		lastLen     int
	}{
		{0, 1, 0, 0},
		{7, 1, 7, 1},  // per-instruction checkpointing
		{7, 0, 7, 1},  // interval < 1 clamps to 1
		{6, 3, 2, 3},  // even split
		{7, 3, 3, 1},  // stream ends mid-region: short tail
		{3, 10, 1, 3}, // interval longer than the program
		{7, -5, 7, 1}, // negative interval clamps too
	}
	for _, tc := range cases {
		c := BuildCFG(tc.n, tc.interval)
		if len(c.Regions) != tc.regions {
			t.Errorf("BuildCFG(%d,%d): %d regions, want %d", tc.n, tc.interval, len(c.Regions), tc.regions)
			continue
		}
		// The regions must partition [0, n) exactly, in order.
		next := 0
		for i, r := range c.Regions {
			if r.Index != i || r.Start != next || r.End <= r.Start {
				t.Errorf("BuildCFG(%d,%d) region %d = %+v, want start %d", tc.n, tc.interval, i, r, next)
			}
			next = r.End
		}
		if tc.n > 0 {
			if next != tc.n {
				t.Errorf("BuildCFG(%d,%d) covers [0,%d), want [0,%d)", tc.n, tc.interval, next, tc.n)
			}
			if got := c.Regions[len(c.Regions)-1].Len(); got != tc.lastLen {
				t.Errorf("BuildCFG(%d,%d) tail length %d, want %d", tc.n, tc.interval, got, tc.lastLen)
			}
			// Every instruction maps into its containing region, and the
			// successor chain wraps the last region to the first.
			for i := 0; i < tc.n; i++ {
				ri := c.RegionOf(i)
				if r := c.Regions[ri]; i < r.Start || i >= r.End {
					t.Errorf("RegionOf(%d) = %d (%+v)", i, ri, r)
				}
			}
			if c.Succ(len(c.Regions)-1) != 0 {
				t.Error("loop edge missing: last region's successor is not region 0")
			}
		}
	}
}

func TestFixpointTerminatesWithinBound(t *testing.T) {
	progs := []isa.Program{
		{},
		cleanProgram(),
		// A loop-carried chain: each pass's gate output feeds the next
		// pass's input, which forces at least one extra fixpoint round.
		{
			isa.ActRange(true, 0, 0, 4, 1),
			isa.Logic(mtj.NOT, []int{1}, 2),
			isa.Preset(1, mtj.P),
			isa.Logic(mtj.NOT, []int{2}, 1),
		},
	}
	for pi, prog := range progs {
		valid := make([]bool, len(prog))
		for i := range valid {
			valid[i] = true
		}
		it := newInterp(prog, Options{CheckpointInterval: 2}, valid)
		if it.iterations >= maxIterations(len(prog)) {
			t.Errorf("program %d: fixpoint took %d iterations, bound %d", pi, it.iterations, maxIterations(len(prog)))
		}
		if len(it.entry) != len(prog)+1 {
			t.Errorf("program %d: %d entry states for %d instructions", pi, len(it.entry), len(prog))
		}
	}
}

// The loop edge distinguishes never-written from first-pass-undefined:
// a gate whose output row is never preset sees bottom on the first pass
// and its own stale result on later ones — rowTop at entry, reported
// with the every-pass wording.
func TestDefUseLoopEdgeRowTop(t *testing.T) {
	prog := isa.Program{
		isa.ActRange(true, 0, 0, 4, 1),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1), // row 1 never preset anywhere
	}
	r := Lint(prog, Options{Rules: []string{"def-use"}})
	errs := r.ByRule("def-use")
	found := false
	for _, d := range errs {
		if d.Severity == Error && strings.Contains(d.Message, "not preset on every pass") {
			found = true
		}
	}
	if !found {
		t.Fatalf("loop-edge rowTop not reported: %+v", errs)
	}
}

// The re-preset-after-checkpoint idiom: every region re-establishes the
// activation and re-presets its gate outputs before using them. The
// region-aware interpreter must prove each region replay-safe — the old
// linear analysis had no per-region entry facts and could not.
func TestRePresetAfterCheckpointIsReplaySafe(t *testing.T) {
	act := func() isa.Instruction { return isa.ActRange(true, 0, 0, 4, 1) }
	prog := isa.Program{
		// Region [0,4)
		act(),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
		isa.Read(0, 1),
		// Region [4,8): same ACT re-issued, outputs re-preset.
		act(),
		isa.Preset(5, mtj.P),
		isa.Logic(mtj.NOT, []int{1}, 5),
		isa.Write(0, 6),
	}
	r := Lint(prog, Options{CheckpointInterval: 4, Rules: []string{"replay"}})
	if len(r.ByRule("replay")) != 0 {
		t.Fatalf("re-preset regions flagged: %+v", r.ByRule("replay"))
	}
}

// The true positive the region CFG adds: a region whose preset runs
// under the carried-in activation and whose own later ACT differs. A
// crash after that ACT restores it — not the entry configuration — and
// the replayed preset lands on the wrong column set.
func TestActivationRestoreHazard(t *testing.T) {
	prog := isa.Program{
		// Region [0,4): establishes the 4-column configuration.
		isa.ActRange(true, 0, 0, 4, 1),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
		isa.Preset(3, mtj.P),
		// Region [4,8): preset under the entry ACT, then a wider ACT.
		isa.Preset(5, mtj.P),
		isa.ActRange(true, 0, 0, 8, 1),
		isa.Preset(6, mtj.P),
		isa.Logic(mtj.NAND2, []int{6, 0}, 3),
	}
	r := Lint(prog, Options{CheckpointInterval: 4, Rules: []string{"replay"}})
	var hazards []Diagnostic
	for _, d := range r.ByRule("replay") {
		if d.Severity == Error && strings.Contains(d.Message, "restores its configuration") {
			hazards = append(hazards, d)
		}
	}
	if len(hazards) != 1 || hazards[0].Index != 5 {
		t.Fatalf("want one activation-restore error at the ACT (index 5): %+v", r.ByRule("replay"))
	}

	// The same stream at interval 1 is trivially safe: every region is a
	// single instruction, so nothing replays under a changed ACT.
	r = Lint(prog, Options{CheckpointInterval: 1, Rules: []string{"replay"}})
	if len(r.ByRule("replay")) != 0 {
		t.Errorf("per-instruction checkpointing flagged: %+v", r.ByRule("replay"))
	}
}

// A buffer load still pending at the end of the stream is dead if the
// program's own next pass reloads the buffer before any write stores it.
func TestDeadWriteAcrossLoopEdge(t *testing.T) {
	prog := isa.Program{
		isa.ActRange(true, 0, 0, 4, 1),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
		isa.Read(0, 1), // loaded, never stored: pass 2's read clobbers it
	}
	r := Lint(prog, Options{Rules: []string{"dead-write"}})
	ds := r.ByRule("dead-write")
	if len(ds) != 1 || ds[0].Index != 3 || !strings.Contains(ds[0].Message, "on the next pass") {
		t.Fatalf("loop-edge dead buffer load not reported: %+v", ds)
	}
	// Storing the buffer before the end of the stream keeps the load live.
	live := append(prog[:len(prog):len(prog)], isa.Write(0, 2))
	r = Lint(live, Options{Rules: []string{"dead-write"}})
	if len(r.ByRule("dead-write")) != 0 {
		t.Errorf("stored buffer flagged: %+v", r.ByRule("dead-write"))
	}
}

// A trailing ACT is only dead when the next pass replaces it unused.
func TestTrailingActAcrossLoopEdge(t *testing.T) {
	dead := isa.Program{
		isa.ActRange(true, 0, 0, 4, 1),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NOT, []int{0}, 1),
		isa.ActRange(true, 0, 0, 8, 1), // replaced by pass 2's first ACT
	}
	r := Lint(dead, Options{Rules: []string{"activation"}})
	var hit bool
	for _, d := range r.ByRule("activation") {
		if d.Index == 3 && strings.Contains(d.Message, "on the next pass") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("dead trailing ACT not reported: %+v", r.ByRule("activation"))
	}

	// If the next pass uses the activation before its own ACT (preset at
	// 0, ACT later), the trailing ACT is live across the loop edge.
	liveProg := isa.Program{
		isa.Preset(1, mtj.P),
		isa.ActRange(true, 0, 0, 4, 1),
		isa.Logic(mtj.NOT, []int{0}, 1),
		isa.ActRange(true, 0, 0, 8, 1), // pass 2's preset uses this
	}
	r = Lint(liveProg, Options{Rules: []string{"activation"}})
	for _, d := range r.ByRule("activation") {
		if strings.Contains(d.Message, "on the next pass") {
			t.Fatalf("live trailing ACT flagged: %+v", d)
		}
	}
}

func TestCertifyCleanProgram(t *testing.T) {
	opts := Options{CheckpointInterval: 3}
	cert, err := Certify(cleanProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Schema != CertSchema || cert.Config != mtj.ModernSTT().Name {
		t.Errorf("header: %+v", cert)
	}
	if !cert.Feasible || len(cert.Regions) != 3 {
		t.Fatalf("clean program at interval 3: %+v", cert)
	}
	worst := cert.Regions[cert.WorstRegion]
	for _, rc := range cert.Regions {
		if !rc.Feasible || rc.WCEJ <= 0 || rc.RestoreJ <= 0 || rc.Headroom <= 1 {
			t.Errorf("region %d: %+v", rc.Index, rc)
		}
		if rc.WCEJ > worst.WCEJ {
			t.Errorf("region %d out-costs the worst region: %+v > %+v", rc.Index, rc, worst)
		}
		if rc.WCEJ < rc.MaxOpJ+rc.RestoreJ {
			t.Errorf("region %d: WCE below restore+maxOp: %+v", rc.Index, rc)
		}
	}
}

// The certificate's execution cost must agree with the simulator's
// pricing of the same stream to the joule: same Op construction, same
// model, same pair counts (sim.StreamFromProgram's convention).
func TestCertifyMatchesSimPricing(t *testing.T) {
	prog := cleanProgram()
	opts := Options{CheckpointInterval: 1}
	cert, err := Certify(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := energy.NewModel(mtj.ModernSTT())
	s := sim.StreamFromProgram(prog, opts.geometry().Tiles)
	var want float64
	for {
		op, ok := s.Next()
		if !ok {
			break
		}
		want += m.Energy(op) + m.Backup(op)
	}
	var got float64
	for _, rc := range cert.Regions {
		got += rc.WCEJ - rc.RestoreJ
	}
	if diff := got - want; diff > 1e-18 || diff < -1e-18 {
		t.Fatalf("certificate prices %.12g J, simulator %.12g J (diff %g)", got, want, diff)
	}
}

func TestCertifyInfeasibleAndReportCap(t *testing.T) {
	tiny := *mtj.ModernSTT()
	tiny.CapC = 1e-15
	// 20 instructions at interval 2: ten regions, all infeasible.
	prog := isa.Program{isa.ActRange(true, 0, 0, 4, 1)}
	for len(prog) < 20 {
		prog = append(prog, isa.Preset(1, mtj.P), isa.Logic(mtj.NOT, []int{0}, 1))
	}
	prog = prog[:20]
	opts := Options{Config: &tiny, CheckpointInterval: 2}
	cert, err := Certify(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Feasible || len(cert.Regions) != 10 {
		t.Fatalf("1 fF certificate: %+v", cert)
	}
	for _, rc := range cert.Regions {
		if rc.Feasible {
			t.Errorf("region %d feasible on 1 fF: %+v", rc.Index, rc)
		}
	}
	// The wce rule reports at most 8 per-region errors plus one summary.
	r := Lint(prog, Options{Config: &tiny, CheckpointInterval: 2, Rules: []string{"wce"}})
	ds := r.ByRule("wce")
	if len(ds) != 9 {
		t.Fatalf("got %d wce findings, want 8 capped + 1 summary: %+v", len(ds), ds)
	}
	summary := 0
	for _, d := range ds {
		if strings.Contains(d.Message, "first 8 reported") {
			summary++
		}
	}
	if summary != 1 {
		t.Errorf("summary line count = %d: %+v", summary, ds)
	}
}

// Headroom warnings are capped like errors: eight per-region findings
// plus one summary, at the per-instruction interval too.
func TestWCEHeadroomWarningCap(t *testing.T) {
	prog := isa.Program{isa.ActRange(true, 0, 0, 4, 1)}
	for len(prog) < 20 {
		prog = append(prog, isa.Preset(1, mtj.P))
	}
	g := Geometry{Tiles: 1, Rows: 1024, Cols: 1024}
	cert, err := Certify(prog, Options{Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	// Size the window to 1.2x the presets' region cost: the ACT region
	// cannot fit and all 19 preset regions fit with thin headroom.
	preset := cert.Regions[1].WCEJ
	cfg := *mtj.ModernSTT()
	cfg.CapC *= 1.2 * preset / cert.WindowJ
	r := Lint(prog, Options{Geometry: g, Config: &cfg, Rules: []string{"wce"}})
	warnings, summary := 0, 0
	for _, d := range r.ByRule("wce") {
		if d.Severity != Warning {
			continue
		}
		warnings++
		if strings.Contains(d.Message, "first 8 reported") {
			summary++
		}
	}
	if warnings != 9 || summary != 1 {
		t.Fatalf("got %d headroom warnings (%d summaries), want 8 capped + 1 summary: %+v", warnings, summary, r.Diagnostics)
	}
}

func TestCertifyRejectsInvalidInstructions(t *testing.T) {
	prog := isa.Program{{Kind: isa.Kind(250)}}
	if _, err := Certify(prog, Options{}); err == nil {
		t.Fatal("invalid instruction certified")
	}
}

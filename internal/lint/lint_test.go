package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// cleanProgram is the idiomatic preset-then-gate sequence (the shape of
// cmd/mouseasm/testdata/pair_nand.s): activation first, every gate
// output preset with the gate's required polarity, the buffer loaded
// before it is stored.
func cleanProgram() isa.Program {
	return isa.Program{
		isa.ActRange(true, 0, 0, 4, 1),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
		isa.Preset(4, mtj.P),
		isa.Logic(mtj.NOT, []int{1}, 4),
		isa.Read(0, 4),
		isa.Write(1, 5),
	}
}

func sevCounts(t *testing.T, r Report) (errors, warnings, infos int) {
	t.Helper()
	return r.Count(Error), r.Count(Warning), r.Count(Info)
}

func TestCleanProgramHasNoErrorsOrWarnings(t *testing.T) {
	r := Lint(cleanProgram(), Options{})
	e, w, _ := sevCounts(t, r)
	if e != 0 || w != 0 {
		t.Fatalf("clean program flagged: %+v", r.Diagnostics)
	}
	if r.HasErrors() {
		t.Error("HasErrors on a clean program")
	}
	if err := r.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
	// The operand rows 0 and 2 really are read-before-written; that is
	// surfaced at info severity, once per row.
	if got := len(r.ByRule("def-use")); got != 2 {
		t.Errorf("expected 2 preloaded-operand infos, got %d: %+v", got, r.ByRule("def-use"))
	}
}

func TestBoundsRule(t *testing.T) {
	g := Geometry{Tiles: 2, Rows: 16, Cols: 8}
	prog := isa.Program{
		isa.ActList(false, 0, []uint16{9}),    // column beyond 8
		isa.Read(5, 3),                        // tile beyond 2
		isa.Preset(20, mtj.P),                 // row beyond 16
		isa.Logic(mtj.NAND2, []int{1, 3}, 18), // output row beyond 16
		isa.WriteRot(0, 1, 12),                // rotation wraps at 8 columns
		isa.ActRange(false, 3, 10, 4, 1),      // tile and start column beyond geometry
	}
	r := Lint(prog, Options{Geometry: g, Rules: []string{"bounds"}})
	if got := len(r.ByRule("bounds")); got != 7 {
		t.Fatalf("expected 7 bounds findings, got %d: %+v", got, r.Diagnostics)
	}
	for _, d := range r.ByRule("bounds") {
		if d.Index == 4 && d.Severity != Warning {
			t.Errorf("rotation wrap should be a warning: %+v", d)
		}
		if d.Index != 4 && d.Severity != Error {
			t.Errorf("out-of-bounds reference should be an error: %+v", d)
		}
	}
	// The same program against the full ISA geometry is bounds-clean.
	r = Lint(prog, Options{Rules: []string{"bounds"}})
	if got := len(r.ByRule("bounds")); got != 0 {
		t.Errorf("full geometry flagged %d bounds findings: %+v", got, r.Diagnostics)
	}
}

func TestDefUseBufferBeforeRead(t *testing.T) {
	r := Lint(isa.Program{isa.Write(0, 1)}, Options{Rules: []string{"def-use"}})
	if e, _, _ := sevCounts(t, r); e != 1 {
		t.Fatalf("undefined-buffer write not flagged: %+v", r.Diagnostics)
	}
	if !strings.Contains(r.Diagnostics[0].Message, "before any read") {
		t.Errorf("message: %q", r.Diagnostics[0].Message)
	}
	// Read-then-write is the legal order.
	r = Lint(isa.Program{isa.Read(0, 0), isa.Write(0, 1)}, Options{Rules: []string{"def-use"}})
	if r.HasErrors() {
		t.Errorf("RD-then-WR flagged: %+v", r.Diagnostics)
	}
}

func TestDefUseGatePresetDiscipline(t *testing.T) {
	act := isa.ActRange(true, 0, 0, 4, 1)
	cases := []struct {
		name string
		prog isa.Program
		sev  Severity
		want string
	}{
		{
			name: "missing preset",
			prog: isa.Program{act, isa.Logic(mtj.NAND2, []int{0, 2}, 1)},
			sev:  Error,
			want: "not preset",
		},
		{
			name: "wrong polarity",
			prog: isa.Program{act, isa.Preset(1, mtj.AP), isa.Logic(mtj.NAND2, []int{0, 2}, 1)},
			sev:  Error,
			want: "requires PRE0",
		},
		{
			name: "stale gate output",
			prog: isa.Program{
				act,
				isa.Preset(1, mtj.P), isa.Logic(mtj.NAND2, []int{0, 2}, 1),
				isa.Logic(mtj.NOR2, []int{0, 2}, 1),
			},
			sev:  Error,
			want: "previous gate result",
		},
		{
			name: "activation changed after preset",
			prog: isa.Program{
				act,
				isa.Preset(1, mtj.P),
				isa.ActRange(true, 0, 0, 8, 1),
				isa.Logic(mtj.NAND2, []int{0, 2}, 1),
			},
			sev:  Warning,
			want: "activation changed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Lint(tc.prog, Options{Rules: []string{"def-use"}})
			found := false
			for _, d := range r.Diagnostics {
				if d.Severity == tc.sev && strings.Contains(d.Message, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("expected %v diagnostic containing %q, got %+v", tc.sev, tc.want, r.Diagnostics)
			}
		})
	}
	// The preset-then-gate idiom itself is clean.
	r := Lint(cleanProgram(), Options{Rules: []string{"def-use"}})
	if e, w, _ := sevCounts(t, r); e != 0 || w != 0 {
		t.Errorf("idiomatic preset-then-gate flagged: %+v", r.Diagnostics)
	}
}

func TestDeadWriteRule(t *testing.T) {
	act := isa.ActRange(true, 0, 0, 4, 1)
	// A preset overwritten by another preset with no read between.
	r := Lint(isa.Program{
		act,
		isa.Preset(1, mtj.AP),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
	}, Options{Rules: []string{"dead-write"}})
	dw := r.ByRule("dead-write")
	if len(dw) != 1 || dw[0].Index != 1 || dw[0].Severity != Warning {
		t.Fatalf("dead preset not flagged at index 1: %+v", r.Diagnostics)
	}

	// A buffer load discarded by a second load.
	r = Lint(isa.Program{
		isa.Read(0, 0),
		isa.Read(0, 2),
		isa.Write(1, 1),
	}, Options{Rules: []string{"dead-write"}})
	dw = r.ByRule("dead-write")
	if len(dw) != 1 || dw[0].Index != 0 || !strings.Contains(dw[0].Message, "memory buffer") {
		t.Fatalf("dead buffer load not flagged: %+v", r.Diagnostics)
	}

	// Negative: preset-then-gate is not dead (the gate reads its preset),
	// and an intervening ACT makes coverage uncertain, so no finding.
	if r := Lint(cleanProgram(), Options{Rules: []string{"dead-write"}}); len(r.Diagnostics) != 0 {
		t.Errorf("clean program flagged: %+v", r.Diagnostics)
	}
	r = Lint(isa.Program{
		act,
		isa.Preset(1, mtj.AP),
		isa.ActRange(true, 0, 4, 4, 1),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
	}, Options{Rules: []string{"dead-write"}})
	if len(r.ByRule("dead-write")) != 0 {
		t.Errorf("ACT-separated presets flagged as dead: %+v", r.Diagnostics)
	}
}

func TestActivationRule(t *testing.T) {
	// Preset with no ACT anywhere.
	r := Lint(isa.Program{isa.Preset(1, mtj.P)}, Options{Rules: []string{"activation"}})
	if e, _, _ := sevCounts(t, r); e != 1 {
		t.Fatalf("preset without ACT not flagged: %+v", r.Diagnostics)
	}

	// An ACT replaced before anything uses it configured nothing.
	r = Lint(isa.Program{
		isa.ActRange(true, 0, 0, 4, 1),
		isa.ActRange(true, 0, 0, 8, 1),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NOT, []int{0}, 1),
	}, Options{Rules: []string{"activation"}})
	dead := r.ByRule("activation")
	if len(dead) != 1 || dead[0].Index != 0 || dead[0].Severity != Warning {
		t.Fatalf("replaced-before-use ACT not flagged at index 0: %+v", r.Diagnostics)
	}

	// Ranged activation walking off the machine edge: partially and
	// totally out of geometry.
	g := Geometry{Tiles: 2, Rows: 16, Cols: 4}
	r = Lint(isa.Program{
		isa.ActRange(true, 0, 2, 5, 4), // columns 2,6,10,14,18 → only 2 inside
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NOT, []int{0}, 1),
	}, Options{Geometry: g, Rules: []string{"activation"}})
	part := r.ByRule("activation")
	if len(part) != 1 || !strings.Contains(part[0].Message, "only 1 of 5") {
		t.Fatalf("partial activation not flagged: %+v", r.Diagnostics)
	}
	r = Lint(isa.Program{
		isa.ActList(true, 0, []uint16{6, 7}),
		isa.Preset(1, mtj.P),
	}, Options{Geometry: g, Rules: []string{"activation"}})
	found := 0
	for _, d := range r.ByRule("activation") {
		if strings.Contains(d.Message, "activates no columns") {
			found++
		}
		if strings.Contains(d.Message, "no live column activation") && d.Severity != Error {
			t.Errorf("dead compute should be an error: %+v", d)
		}
	}
	if found != 1 {
		t.Fatalf("empty activation not flagged: %+v", r.Diagnostics)
	}

	// Negative: activate-then-use is clean.
	if r := Lint(cleanProgram(), Options{Rules: []string{"activation"}}); len(r.Diagnostics) != 0 {
		t.Errorf("clean program flagged: %+v", r.Diagnostics)
	}
}

func TestReplayRule(t *testing.T) {
	hazardous := isa.Program{isa.Read(0, 0), isa.Write(0, 0)}
	// Per-instruction checkpointing (the MOUSE design point): no regions
	// to check, trivially safe.
	r := Lint(hazardous, Options{Rules: []string{"replay"}})
	if len(r.Diagnostics) != 0 {
		t.Fatalf("interval 1 flagged: %+v", r.Diagnostics)
	}
	// Thinned checkpoints: the read-modify-write pair inside one region
	// is the canonical WAR hazard.
	r = Lint(hazardous, Options{CheckpointInterval: 2, Rules: []string{"replay"}})
	rd := r.ByRule("replay")
	if len(rd) != 1 || rd[0].Severity != Error || rd[0].Index != 1 {
		t.Fatalf("WAR hazard not flagged: %+v", r.Diagnostics)
	}
	if !strings.Contains(rd[0].Message, "[0,2)") {
		t.Errorf("message should name the region: %q", rd[0].Message)
	}
	// The same pair split by a checkpoint boundary replays safely.
	safe := isa.Program{isa.Read(0, 0), isa.Write(0, 1)}
	r = Lint(safe, Options{CheckpointInterval: 2, Rules: []string{"replay"}})
	if len(r.Diagnostics) != 0 {
		t.Errorf("safe region flagged: %+v", r.Diagnostics)
	}
}

// windowFor sizes the capacitor so one full discharge window holds
// exactly factor × the program's costliest checkpoint region at
// interval 1, as Certify prices it.
func windowFor(t *testing.T, prog isa.Program, g Geometry, factor float64) *mtj.Config {
	t.Helper()
	cert, err := Certify(prog, Options{Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	if cert.WorstRegion < 0 || cert.Regions[cert.WorstRegion].WCEJ <= 0 {
		t.Fatal("fixture program has no energy cost")
	}
	cfg := *mtj.ModernSTT()
	cfg.CapC *= factor * cert.Regions[cert.WorstRegion].WCEJ / cert.WindowJ
	return &cfg
}

// TestWCERuleAtIntervalOne: under per-instruction checkpointing each
// region is one instruction, so the wce rule is the forward-progress
// check for single instructions, headroom warning included.
func TestWCERuleAtIntervalOne(t *testing.T) {
	prog := cleanProgram()
	g := Geometry{Tiles: 2, Rows: 1024, Cols: 1024}
	cert, err := Certify(prog, Options{Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	worst := cert.Regions[cert.WorstRegion]

	// Default capacitor: orders of magnitude of headroom, no findings.
	r := Lint(prog, Options{Geometry: g, Rules: []string{"wce"}})
	if len(r.Diagnostics) != 0 {
		t.Fatalf("default window flagged: %+v", r.Diagnostics)
	}

	// A window holding half the costliest region can never finish it.
	r = Lint(prog, Options{Geometry: g, Config: windowFor(t, prog, g, 0.5), Rules: []string{"wce"}})
	flagged := false
	for _, d := range r.ByRule("wce") {
		if d.Severity == Error && d.Index == worst.Start && strings.Contains(d.Message, "livelocks") {
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("region [%d,%d) not flagged on half its worst case: %+v", worst.Start, worst.End, r.Diagnostics)
	}

	// A window that barely fits is fragile.
	r = Lint(prog, Options{Geometry: g, Config: windowFor(t, prog, g, 1.2), Rules: []string{"wce"}})
	ds := r.ByRule("wce")
	if len(ds) != 1 || ds[0].Severity != Warning || ds[0].Index != worst.Start || !strings.Contains(ds[0].Message, "headroom") {
		t.Fatalf("fragile headroom not flagged once at %d: %+v", worst.Start, r.Diagnostics)
	}
}

func TestInvalidInstructionsReportedNotAnalyzed(t *testing.T) {
	prog := isa.Program{
		{Kind: isa.Kind(99)},
		{Kind: isa.KindLogic, Gate: mtj.GateKind(200), Out: 1},
		isa.Read(0, 0),
	}
	r := Lint(prog, Options{CheckpointInterval: 4})
	if got := len(r.ByRule("invalid")); got != 2 {
		t.Fatalf("expected 2 invalid findings, got %d: %+v", got, r.Diagnostics)
	}
	if !r.HasErrors() {
		t.Error("invalid instructions must be errors")
	}
}

func TestLineMapAndSorting(t *testing.T) {
	prog := isa.Program{isa.Write(0, 1)}
	r := Lint(prog, Options{LineMap: []int{7}, Rules: []string{"def-use"}})
	if len(r.Diagnostics) == 0 || r.Diagnostics[0].Line != 7 {
		t.Fatalf("line map not applied: %+v", r.Diagnostics)
	}
	if s := r.Diagnostics[0].String(); !strings.HasPrefix(s, "line 7: error:") {
		t.Errorf("String = %q", s)
	}

	// Diagnostics come out ordered by instruction index.
	prog = isa.Program{
		isa.Preset(1, mtj.P),            // activation error at 0
		isa.Write(0, 1),                 // def-use error at 1
		isa.Logic(mtj.NOT, []int{0}, 1), // several findings at 2
	}
	r = Lint(prog, Options{})
	last := -1
	for _, d := range r.Diagnostics {
		if d.Index < last {
			t.Fatalf("diagnostics out of order: %+v", r.Diagnostics)
		}
		last = d.Index
	}
}

func TestRulesRegistryAndFilter(t *testing.T) {
	ids := make(map[string]bool)
	for _, rule := range Rules() {
		if rule.Doc == "" {
			t.Errorf("rule %q has no doc", rule.ID)
		}
		ids[rule.ID] = true
	}
	for _, want := range []string{"bounds", "def-use", "dead-write", "activation", "replay", "wce"} {
		if !ids[want] {
			t.Errorf("rule %q not registered", want)
		}
	}
	// Filtering runs only the named rules.
	prog := isa.Program{isa.Preset(1, mtj.P), isa.Write(0, 1)}
	r := Lint(prog, Options{Rules: []string{"activation"}})
	for _, d := range r.Diagnostics {
		if d.Rule != "activation" {
			t.Errorf("filter leaked rule %q: %+v", d.Rule, d)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := Lint(isa.Program{isa.Write(0, 1)}, Options{LineMap: []int{3}})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(back.Diagnostics) != len(r.Diagnostics) {
		t.Fatalf("round trip lost diagnostics: %d vs %d", len(back.Diagnostics), len(r.Diagnostics))
	}
	if back.Diagnostics[0].Severity != Error || back.Diagnostics[0].Line != 3 {
		t.Errorf("round trip mangled: %+v", back.Diagnostics[0])
	}
	// An empty report still emits a JSON object with an array.
	buf.Reset()
	if err := (Report{}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"diagnostics\": []") {
		t.Errorf("empty report JSON: %s", buf.String())
	}
}

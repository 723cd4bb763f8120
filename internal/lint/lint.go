// Package lint is the static program verifier for MOUSE instruction
// streams: it unifies the correctness conditions the paper states but
// the repo previously checked only piecemeal — per-instruction
// encodability (isa.Validate), replay safety of checkpoint regions
// (Section IV-D's WAR hazards), and energy forward progress (Section I's
// non-termination hazard) — and adds the dataflow discipline the
// application-mapping sections rely on: outputs preset before gates,
// the memory buffer read before it is written, activations established
// before the instructions that depend on them, and addresses that fit
// the deployed array geometry.
//
// Each analysis is an independently registered Rule producing
// Diagnostics (rule ID, severity, instruction index, optional source
// line, message), so new passes are cheap to add and front ends —
// cmd/mousevet, mouseasm -vet, the compile package's self-check hook —
// share one report format, including machine-readable JSON.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// Severity ranks a diagnostic. Errors mean the program is wrong on the
// paper's own terms (it cannot execute as intended on any MOUSE
// machine); warnings mean it is wasteful or fragile; infos surface
// facts worth knowing that are often intentional (e.g. reading
// preloaded operand rows).
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON renders the severity as its lower-case name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the lower-case severity names.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = Info
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("lint: unknown severity %q", name)
	}
	return nil
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Rule is the ID of the rule that produced the finding.
	Rule string `json:"rule"`
	// Severity ranks the finding.
	Severity Severity `json:"severity"`
	// Index is the instruction index in the stream, or -1 for
	// program-level findings.
	Index int `json:"index"`
	// Line is the 1-based source line when the program came from
	// assembly text (0 when unknown or not applicable).
	Line int `json:"line,omitempty"`
	// Message describes the finding.
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	at := "program"
	switch {
	case d.Line > 0:
		at = fmt.Sprintf("line %d", d.Line)
	case d.Index >= 0:
		at = fmt.Sprintf("instruction %d", d.Index)
	}
	return fmt.Sprintf("%s: %s: %s [%s]", at, d.Severity, d.Message, d.Rule)
}

// Geometry is the deployed array shape diagnostics are validated
// against. The ISA address space (512 tiles of 1024×1024) is the upper
// bound; real machines are smaller, and references beyond the machine
// are exactly the silent failures a static check must catch.
type Geometry struct {
	Tiles int `json:"tiles"`
	Rows  int `json:"rows"`
	Cols  int `json:"cols"`
}

// FullGeometry returns the maximal ISA-addressable geometry.
func FullGeometry() Geometry {
	return Geometry{Tiles: isa.MaxTiles, Rows: isa.Rows, Cols: isa.Cols}
}

// Options configure a lint run. The zero value means: full ISA
// geometry, the Modern STT technology, per-instruction checkpointing,
// and every registered rule.
type Options struct {
	// Geometry bounds tile/row/column references; zero → FullGeometry.
	Geometry Geometry
	// Config is the technology and capacitor for the wce rule; nil →
	// mtj.ModernSTT.
	Config *mtj.Config
	// CheckpointInterval is the region length the replay and wce rules
	// verify; values ≤ 1 model MOUSE's per-instruction checkpointing,
	// under which every region is trivially safe.
	CheckpointInterval int
	// MinHeadroom is the wce rule's warning threshold on each region's
	// window/worst-case-energy headroom; 0 → 1.5.
	MinHeadroom float64
	// LineMap gives the 1-based source line of each instruction (from
	// isa.ParseLines); nil leaves Diagnostic.Line zero.
	LineMap []int
	// Rules restricts the run to the listed rule IDs; nil → all.
	Rules []string
}

func (o Options) geometry() Geometry {
	g := o.Geometry
	full := FullGeometry()
	if g.Tiles <= 0 {
		g.Tiles = full.Tiles
	}
	if g.Rows <= 0 {
		g.Rows = full.Rows
	}
	if g.Cols <= 0 {
		g.Cols = full.Cols
	}
	return g
}

// Rule is one registered analysis pass.
type Rule struct {
	// ID names the rule in diagnostics and -rules filters.
	ID string
	// Doc is a one-line description, shown by mousevet -rules help.
	Doc string
	// Check runs the analysis, reporting through the pass.
	Check func(*Pass)
}

var registry []Rule

// Register adds a rule; rule IDs must be unique. Future analyses
// register themselves here and are picked up by every front end.
func Register(r Rule) {
	if r.ID == "" || r.Check == nil {
		panic("lint: rule needs an ID and a Check")
	}
	for _, have := range registry {
		if have.ID == r.ID {
			panic(fmt.Sprintf("lint: duplicate rule %q", r.ID))
		}
	}
	registry = append(registry, r)
}

// Rules returns the registered rules in registration order.
func Rules() []Rule {
	return append([]Rule(nil), registry...)
}

// Pass is the shared state rules run against.
type Pass struct {
	// Prog is the program under analysis.
	Prog isa.Program
	// Opts are the resolved options (geometry and defaults filled in).
	Opts Options
	// Valid[i] reports whether Prog[i] passed isa.Validate. Semantic
	// rules must skip invalid instructions (their fields — gate kinds
	// in particular — cannot be interpreted), and whole-program rules
	// skip entirely unless AllValid.
	Valid []bool
	// AllValid reports whether every instruction validated.
	AllValid bool

	diags []Diagnostic
	itp   *interp
}

// interp returns the pass's fixpoint abstract interpretation, solving
// it on first use and sharing the solution between rules.
func (p *Pass) interp() *interp {
	if p.itp == nil {
		p.itp = newInterp(p.Prog, p.Opts, p.Valid)
	}
	return p.itp
}

// Report files a diagnostic against instruction idx (-1 for
// program-level findings).
func (p *Pass) Report(rule string, idx int, sev Severity, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Rule:     rule,
		Severity: sev,
		Index:    idx,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Report is the result of a lint run.
type Report struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Max returns the highest severity present, and false when there are no
// diagnostics.
func (r Report) Max() (Severity, bool) {
	if len(r.Diagnostics) == 0 {
		return 0, false
	}
	max := r.Diagnostics[0].Severity
	for _, d := range r.Diagnostics[1:] {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max, true
}

// HasErrors reports whether any finding is error-severity.
func (r Report) HasErrors() bool {
	max, ok := r.Max()
	return ok && max == Error
}

// Count returns how many findings have exactly severity sev.
func (r Report) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// ByRule returns the findings produced by one rule.
func (r Report) ByRule(id string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Rule == id {
			out = append(out, d)
		}
	}
	return out
}

// Err returns nil when the report has no error-severity findings, and
// an error summarizing them otherwise — the contract enforced by
// mouseasm -vet and the compile self-check hook.
func (r Report) Err() error {
	if !r.HasErrors() {
		return nil
	}
	first := ""
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			first = d.String()
			break
		}
	}
	return fmt.Errorf("lint: %d error(s), first: %s", r.Count(Error), first)
}

// WriteJSON emits the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if r.Diagnostics == nil {
		r.Diagnostics = []Diagnostic{}
	}
	return enc.Encode(r)
}

// Lint runs the registered rules (filtered by opts.Rules) over the
// program and returns the sorted report. It never panics, whatever the
// instruction stream contains: instructions failing isa.Validate are
// reported under the "invalid" pseudo-rule and excluded from semantic
// analysis.
func Lint(prog isa.Program, opts Options) Report {
	opts.Geometry = opts.geometry()
	if opts.Config == nil {
		opts.Config = mtj.ModernSTT()
	}
	if opts.CheckpointInterval < 1 {
		opts.CheckpointInterval = 1
	}
	if opts.MinHeadroom <= 0 {
		opts.MinHeadroom = 1.5
	}

	pass := &Pass{
		Prog:     prog,
		Opts:     opts,
		Valid:    make([]bool, len(prog)),
		AllValid: true,
	}
	for i := range prog {
		if err := prog[i].Validate(); err != nil {
			pass.AllValid = false
			pass.Report("invalid", i, Error, "%v", err)
		} else {
			pass.Valid[i] = true
		}
	}

	want := func(id string) bool {
		if len(opts.Rules) == 0 {
			return true
		}
		for _, r := range opts.Rules {
			if r == id {
				return true
			}
		}
		return false
	}
	for _, r := range registry {
		if want(r.ID) {
			r.Check(pass)
		}
	}

	for i := range pass.diags {
		if idx := pass.diags[i].Index; idx >= 0 && idx < len(opts.LineMap) {
			pass.diags[i].Line = opts.LineMap[idx]
		}
	}
	// One deterministic order whatever the rule-registration order:
	// errors first, then warnings, then infos; within a severity by
	// stream position, then rule ID, then message text.
	sort.SliceStable(pass.diags, func(i, j int) bool {
		a, b := pass.diags[i], pass.diags[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return Report{Diagnostics: pass.diags}
}

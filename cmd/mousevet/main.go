// mousevet statically verifies MOUSE programs before they are deployed:
// it runs the internal/lint rule suite — address bounds, define-before-
// use, dead writes, column-activation discipline, checkpoint replay
// safety, and forward progress as per-region worst-case energy —
// over assembly sources and binary program images, and exits non-zero
// when any error-severity finding would make the program misbehave at
// inference time.
//
// Usage:
//
//	mousevet [flags] file.s file.img ...
//
//	-json                                  machine-readable report
//	-all                                   also print info-severity findings
//	-werror                                treat warnings as errors for the exit code
//	-rules bounds,wce                      run only the listed rules (empty = all; "help" lists them)
//	-tiles N -rows N -cols N               deployed geometry (default: full ISA space)
//	-config modern-stt|projected-stt|she   technology for the wce rule
//	-cap F                                 capacitor override in farads
//	-interval N                            checkpoint interval for the replay and wce rules
//	-cert                                  emit the per-region worst-case-energy certificate
//
// Exit codes are a contract, for CI use:
//
//	0  no error-severity findings (warnings and infos may exist, unless
//	   -werror, which promotes warnings to the error exit)
//	1  at least one error-severity finding (or warning under -werror)
//	2  usage, configuration, I/O, or parse failure — nothing was verified
//
// Inputs are detected by content: files beginning with the MOUSEPRG
// magic are decoded as images; everything else is parsed as assembly,
// with diagnostics mapped back to source lines.
//
// With -cert, mousevet emits the mouse-wce/v1 certificate produced by
// lint.Certify on stdout (text diagnostics move to stderr so the
// certificate pipes cleanly): one worst-case-energy bound per checkpoint region,
// proving (or refuting, via the wce rule's diagnostics and exit 1) that
// every region completes within one capacitor discharge — the bound the
// checkpoint-placement optimizer consumes. Combined with -cap, this
// answers "does this program make forward progress on an F-farad
// buffer?" before deployment.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mouse/internal/isa"
	"mouse/internal/lint"
	"mouse/internal/mtj"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mousevet:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// imageMagic mirrors the isa image header for content sniffing.
var imageMagic = []byte("MOUSEPRG")

// fileReport pairs a lint report with its source for JSON output.
type fileReport struct {
	File        string            `json:"file"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
	// Certificate is the worst-case-energy certificate, present with
	// -cert when the program validates.
	Certificate *lint.Certificate `json:"certificate,omitempty"`
}

// run executes the CLI and returns the process exit code per the
// contract in the package comment. Usage and I/O problems are returned
// as errors (exit 2 in main). With -cert (and without -json) text
// diagnostics go to stderr so stdout carries the certificate alone and
// pipes cleanly into a JSON consumer.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("mousevet", flag.ContinueOnError)
	fs.SetOutput(stdout)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	all := fs.Bool("all", false, "also print info-severity findings")
	werror := fs.Bool("werror", false, "treat warnings as errors for the exit code")
	rules := fs.String("rules", "", "comma-separated rule IDs to run (empty = all; \"help\" lists them)")
	tiles := fs.Int("tiles", isa.MaxTiles, "deployed tile count")
	rows := fs.Int("rows", isa.Rows, "rows per tile")
	cols := fs.Int("cols", isa.Cols, "columns per tile")
	config := fs.String("config", "modern-stt", "technology: modern-stt, projected-stt, she")
	capF := fs.Float64("cap", 0, "capacitor override in farads (0 = technology default)")
	interval := fs.Int("interval", 1, "checkpoint interval verified by the replay and wce rules")
	cert := fs.Bool("cert", false, "emit the per-region worst-case-energy certificate")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}

	if *rules == "help" {
		for _, r := range lint.Rules() {
			fmt.Fprintf(stdout, "%-12s %s\n", r.ID, r.Doc)
		}
		return 0, nil
	}
	var ruleList []string
	if *rules != "" {
		known := make(map[string]bool)
		for _, r := range lint.Rules() {
			known[r.ID] = true
		}
		for _, id := range strings.Split(*rules, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				return 0, fmt.Errorf("unknown rule %q (try -rules help)", id)
			}
			ruleList = append(ruleList, id)
		}
	}
	if fs.NArg() == 0 {
		return 0, fmt.Errorf("usage: mousevet [flags] <file.s|file.img>...")
	}

	var cfg *mtj.Config
	switch *config {
	case "modern-stt":
		cfg = mtj.ModernSTT()
	case "projected-stt":
		cfg = mtj.ProjectedSTT()
	case "she":
		cfg = mtj.ProjectedSHE()
	default:
		return 0, fmt.Errorf("unknown config %q", *config)
	}
	if *capF < 0 {
		return 0, fmt.Errorf("-cap must be positive, got %g", *capF)
	}
	if *capF > 0 {
		c := *cfg
		c.CapC = *capF
		cfg = &c
	}

	opts := lint.Options{
		Geometry:           lint.Geometry{Tiles: *tiles, Rows: *rows, Cols: *cols},
		Config:             cfg,
		CheckpointInterval: *interval,
		Rules:              ruleList,
	}

	var (
		reports  []fileReport
		exitCode int
	)
	for _, path := range fs.Args() {
		prog, lineMap, err := loadFile(path)
		if err != nil {
			return 0, err
		}
		opts.LineMap = lineMap
		rep := lint.Lint(prog, opts)
		if rep.HasErrors() || (*werror && rep.Count(lint.Warning) > 0) {
			exitCode = 1
		}

		var c *lint.Certificate
		if *cert {
			// Certification needs a fully valid stream; when it is not,
			// the report already carries the invalid-instruction errors.
			c, _ = lint.Certify(prog, opts)
		}

		if *jsonOut {
			fr := fileReport{File: path, Diagnostics: rep.Diagnostics, Certificate: c}
			if fr.Diagnostics == nil {
				fr.Diagnostics = []lint.Diagnostic{}
			}
			reports = append(reports, fr)
			continue
		}
		diagOut := stdout
		if *cert {
			diagOut = stderr
		}
		for _, d := range rep.Diagnostics {
			if d.Severity == lint.Info && !*all {
				continue
			}
			fmt.Fprintf(diagOut, "%s:%s\n", path, diagText(d))
		}
		if c != nil {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(c); err != nil {
				return 0, err
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return 0, err
		}
	}
	return exitCode, nil
}

// diagText renders a diagnostic for the file-prefixed text output:
// source line when known, instruction index otherwise.
func diagText(d lint.Diagnostic) string {
	switch {
	case d.Line > 0:
		return fmt.Sprintf("%d: %s: %s [%s]", d.Line, d.Severity, d.Message, d.Rule)
	case d.Index >= 0:
		return fmt.Sprintf("#%d: %s: %s [%s]", d.Index, d.Severity, d.Message, d.Rule)
	default:
		return fmt.Sprintf(" %s: %s [%s]", d.Severity, d.Message, d.Rule)
	}
}

// loadFile loads one program — image or assembly, detected by content —
// returning the instruction stream and, for assembly, the line map.
func loadFile(path string) (isa.Program, []int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if bytes.HasPrefix(data, imageMagic) {
		prog, err := isa.ReadImage(bytes.NewReader(data))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return prog, nil, nil
	}
	prog, lines, err := isa.ParseLines(bytes.NewReader(data))
	if err != nil {
		var pe *isa.ParseError
		if errors.As(err, &pe) {
			return nil, nil, fmt.Errorf("%s:%d: %v", path, pe.Line, pe.Err)
		}
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return prog, lines, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mouse/internal/isa"
	"mouse/internal/lint"
)

// The golden cases pair one testdata program with the flag set its header
// comment documents and the exact text output the CLI must produce.
var goldenCases = []struct {
	name string
	args []string
	exit int
}{
	{"clean", []string{"testdata/clean.s"}, 0},
	{"bounds", []string{"-tiles", "2", "-rows", "16", "-cols", "8", "-rules", "bounds", "testdata/bounds.s"}, 1},
	{"defuse", []string{"-rules", "def-use", "testdata/defuse.s"}, 1},
	{"deadwrite", []string{"-rules", "dead-write", "testdata/deadwrite.s"}, 0},
	{"activation", []string{"-rules", "activation", "testdata/activation.s"}, 1},
	{"replay", []string{"-interval", "2", "-rules", "replay", "testdata/replay.s"}, 1},
	{"actreplay", []string{"-interval", "4", "-rules", "replay", "testdata/actreplay.s"}, 1},
	{"energy", []string{"-cap", "1e-12", "-rules", "wce", "testdata/energy.s"}, 1},
	// -werror promotes the dead-write warnings to the error exit while
	// leaving the printed report unchanged.
	{"werror", []string{"-werror", "-rules", "dead-write", "testdata/deadwrite.s"}, 1},
	// -cert emits the per-region worst-case-energy certificate; a clean
	// feasible program prints the certificate alone and exits 0.
	{"cert", []string{"-cert", "-interval", "3", "testdata/clean.s"}, 0},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			code, err := run(tc.args, &out, &out)
			if err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			if code != tc.exit {
				t.Errorf("exit code = %d, want %d", code, tc.exit)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".want"))
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("output mismatch:\ngot:\n%swant:\n%s", out.String(), want)
			}
		})
	}
}

// The exit-code contract: 0 clean, 1 findings (warnings only under
// -werror), 2 (an error return) for usage problems.
func TestWErrorContract(t *testing.T) {
	var out bytes.Buffer
	// Without -werror, warnings exit 0.
	code, err := run([]string{"-rules", "dead-write", "testdata/deadwrite.s"}, &out, &out)
	if err != nil || code != 0 {
		t.Fatalf("warnings without -werror: code=%d err=%v", code, err)
	}
	// With -werror, the same warnings exit 1.
	code, err = run([]string{"-werror", "-rules", "dead-write", "testdata/deadwrite.s"}, &out, &out)
	if err != nil || code != 1 {
		t.Fatalf("warnings with -werror: code=%d err=%v", code, err)
	}
	// A clean file stays clean under -werror (infos do not promote).
	code, err = run([]string{"-werror", "testdata/clean.s"}, &out, &out)
	if err != nil || code != 0 {
		t.Fatalf("clean file with -werror: code=%d err=%v", code, err)
	}
}

// -json -cert attaches the certificate to the file report, and the
// whole structure round-trips through encoding/json.
func TestJSONCertificate(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-json", "-cert", "-interval", "3", "testdata/clean.s"}, &out, &out)
	if err != nil || code != 0 {
		t.Fatalf("run: code=%d err=%v", code, err)
	}
	var reports []fileReport
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	c := reports[0].Certificate
	if c == nil {
		t.Fatal("certificate missing from JSON report")
	}
	if c.Schema != lint.CertSchema || !c.Feasible || len(c.Regions) != 3 {
		t.Errorf("unexpected certificate: %+v", c)
	}
	// A tiny capacitor flips the verdict and the exit code together.
	out.Reset()
	code, err = run([]string{"-json", "-cert", "-cap", "1e-12", "-interval", "3", "testdata/clean.s"}, &out, &out)
	if err != nil || code != 1 {
		t.Fatalf("infeasible cap: code=%d err=%v", code, err)
	}
	reports = nil
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatal(err)
	}
	if c := reports[0].Certificate; c == nil || c.Feasible {
		t.Errorf("tiny capacitor should refute feasibility: %+v", c)
	}
}

func TestJSONOutput(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-json", "-rules", "def-use", "testdata/defuse.s"}, &out, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	var reports []fileReport
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(reports) != 1 || reports[0].File != "testdata/defuse.s" {
		t.Fatalf("unexpected report set: %+v", reports)
	}
	// JSON mode carries the full report, infos included.
	errors := 0
	for _, d := range reports[0].Diagnostics {
		if d.Severity == lint.Error {
			errors++
		}
		if d.Rule != "def-use" {
			t.Errorf("diagnostic from rule %q, want def-use", d.Rule)
		}
		if d.Line == 0 {
			t.Errorf("diagnostic missing source line: %+v", d)
		}
	}
	if errors != 3 {
		t.Fatalf("got %d error diagnostics, want 3: %+v", errors, reports[0].Diagnostics)
	}
}

// A binary image is sniffed by its MOUSEPRG magic and linted without a
// line map, so diagnostics fall back to instruction indices.
func TestLintBinaryImage(t *testing.T) {
	src, err := os.Open("testdata/defuse.s")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	prog, _, err := isa.ParseLines(src)
	if err != nil {
		t.Fatal(err)
	}
	img := filepath.Join(t.TempDir(), "defuse.img")
	f, err := os.Create(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := isa.WriteImage(prog, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	code, err := run([]string{"-rules", "def-use", img}, &out, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "#1:") {
		t.Errorf("image diagnostics should use #index positions, got:\n%s", out.String())
	}
}

// The shipped demonstration program must lint clean under the default
// full geometry and energy configuration.
func TestPairNANDIsClean(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"../mouseasm/testdata/pair_nand.s"}, &out, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 || out.Len() != 0 {
		t.Errorf("pair_nand.s should be clean, exit=%d output:\n%s", code, out.String())
	}
}

func TestAllShowsInfos(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-all", "testdata/clean.s"}, &out, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "info:") {
		t.Errorf("-all should surface info diagnostics (preloaded operands), got:\n%s", out.String())
	}
}

func TestRulesHelp(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-rules", "help"}, &out, &out)
	if err != nil || code != 0 {
		t.Fatalf("run: code=%d err=%v", code, err)
	}
	for _, id := range []string{"bounds", "def-use", "dead-write", "activation", "replay", "wce"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("rule listing missing %q:\n%s", id, out.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{}, &out, &out); err == nil {
		t.Error("no files should be a usage error")
	}
	if _, err := run([]string{"-rules", "no-such-rule", "testdata/clean.s"}, &out, &out); err == nil {
		t.Error("unknown rule should be an error")
	}
	if _, err := run([]string{"testdata/missing.s"}, &out, &out); err == nil {
		t.Error("missing file should be an error")
	}
	if _, err := run([]string{"-config", "bogus", "testdata/clean.s"}, &out, &out); err == nil {
		t.Error("unknown config should be an error")
	}
}

// With -cert, diagnostics move to stderr so stdout is the bare
// certificate and pipes cleanly into a JSON consumer even when the
// rules fire.
func TestCertStdoutIsPureJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// 100 nF keeps every region feasible but trips the headroom warning.
	code, err := run([]string{"-cert", "-interval", "3", "-cap", "1e-7", "testdata/clean.s"}, &stdout, &stderr)
	if err != nil || code != 0 {
		t.Fatalf("run: code=%d err=%v", code, err)
	}
	var c lint.Certificate
	if err := json.Unmarshal(stdout.Bytes(), &c); err != nil {
		t.Fatalf("stdout is not a bare certificate: %v\n%s", err, stdout.String())
	}
	if c.Schema != lint.CertSchema || !c.Feasible {
		t.Errorf("unexpected certificate: %+v", c)
	}
	if !strings.Contains(stderr.String(), "[wce]") {
		t.Errorf("headroom warnings should land on stderr, got:\n%s", stderr.String())
	}
}

// A parse failure must carry the file and line of the bad statement.
func TestParseErrorHasLine(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.s")
	if err := os.WriteFile(bad, []byte("ACT * R 0 4 1\nBOGUS 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err := run([]string{bad}, &out, &out)
	if err == nil || !strings.Contains(err.Error(), bad+":2:") {
		t.Errorf("want error mentioning %s:2:, got %v", bad, err)
	}
}

// TestNonFiniteFloatFlags: a NaN or infinite -cap fails with an error
// naming the flag, with and without -cert, instead of certifying the
// default capacitor or failing to encode an infinite window.
func TestNonFiniteFloatFlags(t *testing.T) {
	for _, v := range []string{"NaN", "+Inf", "-Inf"} {
		for _, extra := range [][]string{nil, {"-cert", "-json"}} {
			args := append(append([]string{"-cap", v}, extra...), "testdata/clean.s")
			var out bytes.Buffer
			if _, err := run(args, &out, &out); err == nil || !strings.Contains(err.Error(), "-cap") {
				t.Errorf("%v: got %v, want an error naming -cap", args, err)
			}
		}
	}
}

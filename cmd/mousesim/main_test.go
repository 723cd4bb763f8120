package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// writeImage assembles a small program image into dir.
func writeImage(t *testing.T, dir string) string {
	t.Helper()
	prog := isa.Program{
		isa.ActRange(true, 0, 0, 4, 1),
		// Row 0 and 2 start at 0 everywhere; NAND(0,0)=1 into row 1.
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
		// NOT of row 1 → row 2 becomes 0 (kept 0).
		isa.Preset(3, mtj.P),
		isa.Logic(mtj.NOT, []int{1}, 3+1), // NOT row1 -> row 4
	}
	path := filepath.Join(dir, "prog.img")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := isa.WriteImage(prog, f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunContinuous(t *testing.T) {
	img := writeImage(t, t.TempDir())
	var out bytes.Buffer
	if err := run([]string{"-rows", "16", "-cols", "8", "-dump", "0:0:4:0", img}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "instructions:  5 (0 restarts)") {
		t.Errorf("missing instruction count: %q", s)
	}
	if !strings.Contains(s, "terminates") {
		t.Errorf("missing termination report: %q", s)
	}
	// Rows 0..4 of column 0: 0, NAND=1, 0, 0, NOT(1)=0.
	if !strings.Contains(s, "tile 0 col 0 rows 0..4: 0 1 0 0 0") {
		t.Errorf("dump wrong: %q", s)
	}
}

func TestRunIntermittent(t *testing.T) {
	img := writeImage(t, t.TempDir())
	var out bytes.Buffer
	err := run([]string{"-rows", "16", "-cols", "8", "-power", "1e-6", "-cap", "2e-9", img}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "charging") {
		t.Errorf("no charging time reported: %q", out.String())
	}
}

// TestRunRefusesUndersizedCap: -cap sizes the capacitor the verdict is
// certified on, not only the harvester. 0.63 nF gives a 4.16 pJ window:
// above the ACT's own 4.08 pJ but below the 4.24 pJ worst case of its
// region once a restart restore is charged, so the certificate is
// infeasible and the harvested run is refused.
func TestRunRefusesUndersizedCap(t *testing.T) {
	img := writeImage(t, t.TempDir())
	var out bytes.Buffer
	err := run([]string{"-rows", "16", "-cols", "8", "-power", "1e-6", "-cap", "6.3e-10", img}, &out)
	if err == nil || !strings.Contains(err.Error(), "forward progress") {
		t.Fatalf("undersized capacitor not refused: err=%v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "NON-TERMINATING: window 4.158e-12 J, worst region [0,1)") {
		t.Errorf("verdict should be NON-TERMINATING on the overridden window: %q", s)
	}
	if strings.Contains(s, "instructions:") {
		t.Errorf("refused program ran: %q", s)
	}
}

func TestRunConfigs(t *testing.T) {
	img := writeImage(t, t.TempDir())
	for _, cfg := range []string{"modern-stt", "projected-stt", "she"} {
		var out bytes.Buffer
		if err := run([]string{"-config", cfg, "-rows", "16", "-cols", "8", img}, &out); err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Errorf("missing image accepted")
	}
	if err := run([]string{"-config", "frob", "x.img"}, &out); err == nil {
		t.Errorf("bad config accepted")
	}
	if err := run([]string{"nonexistent.img"}, &out); err == nil {
		t.Errorf("missing file accepted")
	}
	img := writeImage(t, t.TempDir())
	if err := run([]string{"-rows", "16", "-cols", "8", "-dump", "zig", img}, &out); err == nil {
		t.Errorf("bad dump spec accepted")
	}
	if err := run([]string{"-rows", "16", "-cols", "8", "-dump", "0:0:99:0", img}, &out); err == nil {
		t.Errorf("out-of-range dump accepted")
	}
}

// TestNonFiniteFloatFlags: a NaN or infinite -power or -cap fails with
// an error naming the flag, instead of taking the flag's 0 = continuous
// or default meaning.
func TestNonFiniteFloatFlags(t *testing.T) {
	img := writeImage(t, t.TempDir())
	for _, flagName := range []string{"-power", "-cap"} {
		for _, v := range []string{"NaN", "+Inf", "-Inf"} {
			err := run([]string{flagName, v, "-tiles", "2", img}, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), flagName) {
				t.Errorf("%s %s: got %v, want an error naming %s", flagName, v, err, flagName)
			}
		}
	}
}

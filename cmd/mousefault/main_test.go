package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mouse/internal/fault"
)

// TestGoldenJSONReport runs a bounded machine-layer sweep and checks the
// emitted mouse-fault/v1 report field by field, then re-runs the same
// sweep at a different parallelism and requires byte-identical
// normalized output.
func TestGoldenJSONReport(t *testing.T) {
	args := []string{
		"-workload", "tiny-svm", "-stride", "9", "-fracs", "0,0.5",
		"-json", "-normalize", "-parallel", "1",
	}
	var a bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}

	var rep fault.Report
	if err := json.Unmarshal(a.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != fault.Schema {
		t.Errorf("schema %q, want %q", rep.Schema, fault.Schema)
	}
	if rep.Tool != "mousefault" {
		t.Errorf("tool %q, want mousefault", rep.Tool)
	}
	if rep.Layer != fault.LayerMachine {
		t.Errorf("layer %q, want %q", rep.Layer, fault.LayerMachine)
	}
	if rep.Workload != "tiny-svm" {
		t.Errorf("workload %q, want tiny-svm", rep.Workload)
	}
	if rep.Instructions == 0 {
		t.Error("golden instruction count missing")
	}
	wantPoints := (int(rep.Instructions) + 8) / 9 * 2 // ceil(n/9) boundaries × 2 fracs
	if rep.Points != wantPoints {
		t.Errorf("points %d, want %d", rep.Points, wantPoints)
	}
	if len(rep.Verdicts) != rep.Points {
		t.Errorf("%d verdicts for %d points", len(rep.Verdicts), rep.Points)
	}
	if !rep.AllEquivalent() {
		t.Errorf("%d/%d points not crash-equivalent", rep.Points-rep.Equivalent, rep.Points)
	}
	if rep.MaxReplays > 1 {
		t.Errorf("max replays %d, claim allows at most 1", rep.MaxReplays)
	}
	if rep.Parallelism != 0 || rep.WallSeconds != 0 {
		t.Errorf("normalized report kept host fields: parallelism %d, wall %g", rep.Parallelism, rep.WallSeconds)
	}

	var b bytes.Buffer
	args[len(args)-1] = "4" // same sweep, different worker bound
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("normalized reports differ between parallelism 1 and 4")
	}
}

// goldenSweep is the bounded sweep the committed reports were produced
// with: every 97th boundary at the fetch, mid-execute and PC-write
// fractions.
var goldenSweep = []string{"-stride", "97", "-fracs", "0,0.5,0.92", "-json", "-normalize"}

// TestGoldenReports pins the normalized JSON report of a bounded sweep
// of every workload on both layers to the files in testdata, byte for
// byte. Regenerate one with
//
//	mousefault -layer L -workload W -stride 97 -fracs 0,0.5,0.92 -json -normalize -out testdata/W-L.golden
//
// only when a change to the reports is intended.
func TestGoldenReports(t *testing.T) {
	for _, layer := range []string{fault.LayerMachine, fault.LayerTrace} {
		for _, name := range []string{"arith", "tiny-svm", "tiny-bnn", "tiny-fft"} {
			t.Run(name+"-"+layer, func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join("testdata", name+"-"+layer+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				args := append([]string{"-layer", layer, "-workload", name}, goldenSweep...)
				if err := run(args, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("report differs from testdata/%s-%s.golden:\n%s", name, layer, got.Bytes())
				}
			})
		}
	}
}

// TestTraceLayerSummary covers the trace layer's human-readable path and
// the -out redirection.
func TestTraceLayerSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	var stdout bytes.Buffer
	err := run([]string{"-layer", "trace", "-stride", "40", "-fracs", "0.5", "-out", path}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-out still wrote to stdout: %q", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "[trace]") || !strings.Contains(string(data), "crash-equivalent") {
		t.Errorf("summary missing layer/verdict: %q", data)
	}
}

// TestBadFlags: every invalid invocation is rejected before any sweep.
func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-layer", "quantum"},
		{"-config", "cmos"},
		{"-workload", "nope"},
		{"-layer", "trace", "-scalar"},
		{"-fracs", "0.2,oops"},
		{"-fracs", "1.0"},
		{"-fracs", "-0.1"},
		{"positional"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestParseFracs covers the fraction-list parser directly.
func TestParseFracs(t *testing.T) {
	got, err := parseFracs(" 0, 0.5 ,0.97")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 0.97}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if fracs, err := parseFracs(""); err != nil || fracs != nil {
		t.Fatalf("empty spec: got %v, %v; want nil, nil", fracs, err)
	}
}

// TestNotEquivalentExit: errNotEquivalent is a distinct, matchable error
// (the CLI's non-zero exit contract), even though the built-in workloads
// never trigger it.
func TestNotEquivalentExit(t *testing.T) {
	wrapped := errors.New("wrapper")
	if errors.Is(wrapped, errNotEquivalent) {
		t.Fatal("unrelated error matches errNotEquivalent")
	}
}

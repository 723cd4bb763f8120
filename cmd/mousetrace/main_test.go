package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// goldenArgs is the small starved custom-SVM run the golden trace pins:
// a constant source weak enough to brown the run out tens of times, so
// the trace exercises every event type (charge, outages, interrupts,
// restores, replays, voltage samples). The simulation clock is fully
// deterministic and the writer formats timestamps with fixed precision,
// so the trace bytes are stable across platforms.
func goldenArgs(out string) []string {
	return []string{
		"-workload", "custom", "-features", "4", "-bits", "1", "-sv", "2",
		"-classes", "2", "-source", "constant", "-power", "1.5e-6",
		"-cap", "1e-7", "-vsample", "1e-4", "-out", out,
	}
}

func TestTraceGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	var stdout bytes.Buffer
	if err := run(goldenArgs(out), &stdout); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "custom-svm-starved.trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from %s (run with -update to regenerate); got %d bytes, want %d",
			golden, len(got), len(want))
	}

	for _, line := range []string{"instructions", "outages", "replayed", "capacitor"} {
		if !strings.Contains(stdout.String(), line) {
			t.Errorf("summary missing %q:\n%s", line, stdout.String())
		}
	}
}

// TestTraceSchema walks every event of a generated trace and checks the
// Chrome trace_event invariants Perfetto relies on: a known phase, the
// single mouse process, non-negative monotonic-format timestamps, and
// the fields each phase requires.
func TestTraceSchema(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := run(goldenArgs(out), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Name string         `json:"name"`
			TS   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	seen := map[string]int{}
	for i, ev := range doc.TraceEvents {
		seen[ev.Ph]++
		if ev.PID != 1 {
			t.Fatalf("event %d: pid %d, want 1", i, ev.PID)
		}
		if ev.Name == "" {
			t.Fatalf("event %d: empty name", i)
		}
		switch ev.Ph {
		case "M":
			if ev.Args == nil {
				t.Fatalf("event %d: metadata without args", i)
			}
		case "X":
			if ev.TS == nil || ev.Dur == nil {
				t.Fatalf("event %d (%s): span missing ts/dur", i, ev.Name)
			}
			if *ev.TS < 0 || *ev.Dur < 0 {
				t.Fatalf("event %d (%s): negative ts %g / dur %g", i, ev.Name, *ev.TS, *ev.Dur)
			}
		case "i", "C":
			if ev.TS == nil || *ev.TS < 0 {
				t.Fatalf("event %d (%s): instant/counter without a valid ts", i, ev.Name)
			}
		default:
			t.Fatalf("event %d: unknown phase %q", i, ev.Ph)
		}
	}
	// A starved run must populate every track.
	for _, ph := range []string{"M", "X", "i", "C"} {
		if seen[ph] == 0 {
			t.Errorf("no %q events in a starved run: %v", ph, seen)
		}
	}
}

// TestStatsFileMatchesSummary runs the golden configuration with -stats
// and checks the JSON section agrees with the stdout summary, while the
// trace and stdout stay byte-identical to a run without the flag.
func TestStatsFileMatchesSummary(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "run.trace.json")
	var plainStdout bytes.Buffer
	if err := run(goldenArgs(out), &plainStdout); err != nil {
		t.Fatal(err)
	}
	plainTrace, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	statsFile := filepath.Join(dir, "stats.json")
	var stdout bytes.Buffer
	if err := run(append(goldenArgs(out), "-stats", statsFile), &stdout); err != nil {
		t.Fatal(err)
	}

	if plainStdout.String() != stdout.String() {
		t.Errorf("-stats changed stdout:\n%s\nvs\n%s", stdout.String(), plainStdout.String())
	}
	statsTrace, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainTrace, statsTrace) {
		t.Errorf("-stats changed the trace bytes")
	}

	data, err := os.ReadFile(statsFile)
	if err != nil {
		t.Fatal(err)
	}
	var sec struct {
		Instructions uint64 `json:"instructions"`
		Outages      uint64 `json:"outages"`
		Replays      uint64 `json:"replays"`
	}
	if err := json.Unmarshal(data, &sec); err != nil {
		t.Fatalf("stats file is not valid JSON: %v", err)
	}
	if sec.Instructions == 0 || sec.Outages == 0 {
		t.Errorf("stats section looks empty: %+v", sec)
	}
	// The summary's instruction count must agree with the JSON section.
	wantLine := "instructions  " + strconv.FormatUint(sec.Instructions, 10)
	if !strings.Contains(stdout.String(), wantLine) {
		t.Errorf("summary does not contain %q:\n%s", wantLine, stdout.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-config", "nonsense"},
		{"-source", "nonsense"},
		{"-workload", "nonsense"},
		{"positional"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) accepted bad input", args)
		}
	}
}

// TestTraceSourceEndOfTrace: a recorded power trace shorter than the
// run must be surfaced — the note names the tail policy that supplied
// the remainder — and -trace-file/-trace-tail plumb through ParseTrace.
func TestTraceSourceEndOfTrace(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "supply.txt")
	// Plenty of power, but the recording ends after 1 ms; a hold tail
	// keeps the final wattage so the run still completes.
	if err := os.WriteFile(traceFile, []byte("# short recording\n0 5e-5\n1e-3 5e-5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-workload", "custom", "-features", "4", "-bits", "1", "-sv", "2",
		"-classes", "2", "-source", "trace", "-trace-file", traceFile,
		"-trace-tail", "hold", "-cap", "1e-7", "-vsample", "0",
		"-out", filepath.Join(dir, "out.trace.json"),
	}
	var stdout bytes.Buffer
	if err := run(args, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "outlived its power trace") ||
		!strings.Contains(stdout.String(), `"hold" tail policy`) {
		t.Errorf("end-of-trace note missing:\n%s", stdout.String())
	}

	for name, extra := range map[string][]string{
		"missing file": {"-source", "trace", "-trace-file", filepath.Join(dir, "nope.txt")},
		"no file":      {"-source", "trace"},
		"bad tail":     {"-source", "trace", "-trace-file", traceFile, "-trace-tail", "forever"},
	} {
		if err := run(append([]string{"-out", filepath.Join(dir, "x.json")}, extra...), &bytes.Buffer{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestNonFiniteFloatFlags: a NaN or infinite -power, -period, -cap or
// -vsample fails with an error naming the flag before any run.
func TestNonFiniteFloatFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.trace.json")
	for _, flagName := range []string{"-power", "-period", "-cap", "-vsample"} {
		for _, v := range []string{"NaN", "+Inf", "-Inf"} {
			args := []string{"-workload", "SVM ADULT", "-out", out, flagName, v}
			if err := run(args, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), flagName) {
				t.Errorf("%s %s: got %v, want an error naming %s", flagName, v, err, flagName)
			}
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected flag still wrote %s (stat: %v)", out, err)
	}
}

package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestExperimentRegistryIsComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "fig9", "fig10",
		"fig11", "fig12", "fft", "robustness", "checkpoint", "parallelism", "crossover",
		"batch", "segment", "fleet"}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("%d experiments, want %d", len(exps), len(want))
	}
	for i, e := range exps {
		if e.Name != want[i] {
			t.Errorf("experiment %d named %q, want %q", i, e.Name, want[i])
		}
		if e.Print == nil || e.Rows == nil {
			t.Errorf("%s: missing Print or Rows", e.Name)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	if _, err := selectExperiments("frobnicate"); err == nil {
		t.Errorf("unknown experiment accepted")
	}
	one, err := selectExperiments("fig11")
	if err != nil || len(one) != 1 || one[0].Name != "fig11" {
		t.Fatalf("fig11 selection: %v %v", one, err)
	}
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(Experiments()) {
		t.Fatalf("all selection: %d %v", len(all), err)
	}
}

// TestReportRoundTrip checks the report survives a JSON round trip with
// the schema fields intact and typed rows preserved structurally —
// mousebench -json output is consumed by trajectory tooling, not only
// humans.
func TestReportRoundTrip(t *testing.T) {
	rep, err := BuildReport("checkpoint", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.Tool != "mousebench" || rep.Parallelism != 2 {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Name != "checkpoint" {
		t.Fatalf("experiments: %+v", rep.Experiments)
	}
	if rep.Experiments[0].WallSeconds <= 0 {
		t.Errorf("wall clock not recorded")
	}
	rows, ok := rep.Experiments[0].Rows.([]CheckpointRow)
	if !ok || len(rows) != 3 {
		t.Fatalf("rows: %#v", rep.Experiments[0].Rows)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Schema != Schema || len(decoded.Experiments) != 1 {
		t.Fatalf("decoded: %+v", decoded)
	}
	raw, ok := decoded.Experiments[0].Rows.([]any)
	if !ok || len(raw) != 3 {
		t.Fatalf("decoded rows: %#v", decoded.Experiments[0].Rows)
	}
	row, ok := raw[0].(map[string]any)
	if !ok {
		t.Fatalf("decoded row: %#v", raw[0])
	}
	if _, ok := row["Interval"]; !ok {
		t.Errorf("checkpoint row lost Interval field: %v", row)
	}
	// Tables render typed rows only; a decoded report is refused, not
	// misprinted.
	if err := decoded.WriteTables(&bytes.Buffer{}); err == nil {
		t.Errorf("WriteTables accepted decoded rows")
	}
}

func TestNormalizeStripsRunEnvironment(t *testing.T) {
	a, err := BuildReport("parallelism", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildReport("parallelism", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatalf("reports with different parallelism should differ before Normalize")
	}
	a.Normalize()
	b.Normalize()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("normalized reports differ: %+v vs %+v", a, b)
	}

	// A report decoded from JSON must normalize to the same content as
	// the in-memory report it was encoded from: no host timing may hide
	// in the rows, where Normalize cannot see it.
	seg, err := BuildReport("segment", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := seg.WriteJSON(&enc); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(enc.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	seg.Normalize()
	decoded.Normalize()
	if got, want := canonicalJSON(t, &decoded), canonicalJSON(t, seg); got != want {
		t.Errorf("decoded report normalizes differently:\n got %s\nwant %s", got, want)
	}
}

// canonicalJSON is rep's JSON with every object's keys sorted, indented:
// decoded rows are maps, which encode with sorted keys, so an in-memory
// report and one decoded from a file compare in this form.
func canonicalJSON(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var generic any
	if err := json.Unmarshal(buf.Bytes(), &generic); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(generic, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestReportMatchesNewestBench pins the simulation output: the "all"
// report, normalized, must equal the normalized newest BENCH_N.json
// byte for byte (in canonical JSON). A change that moves simulation
// output on purpose commits the next BENCH_N.json with it, which
// TestBenchTrajectory keeps contiguous.
func TestReportMatchesNewestBench(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	newest := fmt.Sprintf("BENCH_%d.json", len(paths)-1)
	data, err := os.ReadFile(filepath.Join("../..", newest))
	if err != nil {
		t.Fatal(err)
	}
	var pinned Report
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatalf("%s: %v", newest, err)
	}
	rep, err := BuildReport("all", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned.Normalize()
	rep.Normalize()
	got, want := canonicalJSON(t, rep), canonicalJSON(t, &pinned)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("normalized report differs from %s at canonical line %d:\n got %q\nwant %q", newest, i+1, g, w)
		}
	}
}

// TestBenchTrajectory consumes the committed BENCH_*.json perf
// trajectory. Older snapshots were written by older registries, so the
// contract is monotone, not uniform: the numbered files must be
// contiguous from BENCH_0.json, every file schema-valid with a
// non-decreasing schema version, each snapshot's experiment set must
// contain its predecessor's (experiments are only ever added), and the
// newest snapshot must cover the full current registry.
func TestBenchTrajectory(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("seed baseline BENCH_0.json missing")
	}
	for i := range paths {
		want := fmt.Sprintf("BENCH_%d.json", i)
		found := false
		for _, p := range paths {
			if filepath.Base(p) == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trajectory %v is not contiguous: missing %s", paths, want)
		}
	}
	var prevVersion int
	var prevSeen map[string]bool
	for i := range paths {
		name := fmt.Sprintf("BENCH_%d.json", i)
		data, err := os.ReadFile(filepath.Join("../..", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
		var version int
		if _, err := fmt.Sscanf(rep.Schema, "mouse-bench/v%d", &version); err != nil || version < 1 {
			t.Fatalf("%s: unparseable schema %q", name, rep.Schema)
		}
		if version < prevVersion {
			t.Errorf("%s: schema version v%d regressed below v%d", name, version, prevVersion)
		}
		prevVersion = version
		seen := map[string]bool{}
		for _, e := range rep.Experiments {
			if e.Name == "" || e.Rows == nil {
				t.Errorf("%s: experiment incomplete: %+v", name, e)
			}
			if e.WallSeconds < 0 {
				t.Errorf("%s: %s: negative wall clock", name, e.Name)
			}
			if seen[e.Name] {
				t.Errorf("%s: duplicate experiment %q", name, e.Name)
			}
			seen[e.Name] = true
		}
		for exp := range prevSeen {
			if !seen[exp] {
				t.Errorf("%s: dropped experiment %q present in BENCH_%d.json", name, exp, i-1)
			}
		}
		prevSeen = seen
	}
	// The newest snapshot must speak for the whole current registry.
	newest := fmt.Sprintf("BENCH_%d.json", len(paths)-1)
	for _, e := range Experiments() {
		if !prevSeen[e.Name] {
			t.Errorf("%s: missing experiment %q from the current registry", newest, e.Name)
		}
	}
}

func TestPrintedSeparatorFraming(t *testing.T) {
	rep, err := BuildReport("table2", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTables(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(buf.String(), "\n\n") {
		t.Errorf("single experiment has a trailing blank line")
	}
	if _, err := BuildReport("nope", 1, nil); err == nil {
		t.Errorf("unknown experiment accepted")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"mouse/internal/metrics"
)

// fakePools stands in for the trained pools: request generation only
// reads the sample vectors.
func fakePools() map[string]*pool {
	out := map[string]*pool{}
	for k, model := range models {
		p := &pool{}
		for i := 0; i < 10; i++ {
			p.samples = append(p.samples, []int{k, i, i % 3})
		}
		out[model] = p
	}
	return out
}

func TestSparseScheduleSeeded(t *testing.T) {
	pools := fakePools()
	gen := func(seed int64) []request {
		t.Helper()
		reqs, err := sparseSchedule(pools, seed, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	a, b, c := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	var mixA, mixC []string
	for _, r := range a {
		mixA = append(mixA, r.model)
	}
	for _, r := range c {
		mixC = append(mixC, r.model)
	}
	if reflect.DeepEqual(mixA, mixC) {
		t.Fatal("different seeds gave the same model mix")
	}

	// Poisson arrivals at sparseRate: about sparseRate*20 requests, in
	// schedule order, each of sparseSamples samples, both models present.
	if n := float64(len(a)); math.Abs(n-20*sparseRate) > 5*math.Sqrt(20*sparseRate) {
		t.Errorf("%d requests in 20s at %g/s", len(a), sparseRate)
	}
	seen := map[string]int{}
	for i, r := range a {
		if i > 0 && r.at < a[i-1].at {
			t.Fatalf("request %d scheduled before request %d", i, i-1)
		}
		if len(r.idx) != sparseSamples {
			t.Fatalf("request %d has %d samples", i, len(r.idx))
		}
		var body struct {
			Workload string  `json:"workload"`
			Samples  [][]int `json:"samples"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			t.Fatal(err)
		}
		if body.Workload != r.model || !reflect.DeepEqual(body.Samples[0], pools[r.model].samples[r.idx[0]]) {
			t.Fatalf("request %d body does not match its samples", i)
		}
		seen[r.model]++
	}
	if len(seen) != len(models) {
		t.Errorf("model mix %v", seen)
	}
}

func TestBulkRequestsSeeded(t *testing.T) {
	pools := fakePools()
	pools[bnnModel].hb.Capacity = 64
	a, _ := bulkRequests(pools, 7)
	b, _ := bulkRequests(pools, 7)
	c, _ := bulkRequests(pools, 8)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("bulk bodies are not a function of the seed alone")
	}
	for _, r := range a {
		if r.model != bnnModel || len(r.idx) != 64 {
			t.Fatalf("bulk request %s of %d samples", r.model, len(r.idx))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {75, 40}, {100, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(ten, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", got)
	}
	if got := percentile(ten, 99); got != 10 {
		t.Errorf("p99 of 1..10 = %g, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 1..4 = %g, want 2 (nearest rank)", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
	if got := tailCount(1000, 99); got != 10 {
		t.Errorf("tail beyond p99 of 1000 = %d, want 10", got)
	}
}

func TestParseProcStat(t *testing.T) {
	fixture := `cpu  4705 150 1120 16250 520 0 30 80 40 0
cpu0 2305 70 560 8150 260 0 20 40 20 0
intr 12345
`
	got, err := parseProcStat(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if want := (cpuTimes{Total: 4705 + 150 + 1120 + 16250 + 520 + 0 + 30 + 80, Steal: 80}); got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if s := stealShare(cpuTimes{Total: 1000, Steal: 10}, cpuTimes{Total: 1200, Steal: 60}); s != 0.25 {
		t.Errorf("steal share %g, want 0.25", s)
	}
	if _, err := parseProcStat("cpu 1 2 3\n"); err == nil {
		t.Error("short cpu line accepted")
	}
	if _, err := parseProcStat("intr 1\n"); err == nil {
		t.Error("missing cpu line accepted")
	}
}

func TestParsePidStat(t *testing.T) {
	// The command may hold spaces and parentheses.
	fixture := "4242 (mo (used) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 731 52 0 0 20 0 9 0 12345 1603076096 6426 18446744073709551615"
	got, err := parsePidStat(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if want := (pidTimes{User: 731, System: 52}); got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if _, err := parsePidStat("4242 (moused) S 1 2"); err == nil {
		t.Error("truncated stat accepted")
	}
}

func TestPrometheusSeries(t *testing.T) {
	fixture := `# HELP moused_fleet_device_served_total Inference requests answered per fleet device.
# TYPE moused_fleet_device_served_total counter
moused_fleet_device_served_total{device="0"} 12
moused_fleet_device_served_total{device="1"} 3
# HELP moused_infer_latency_seconds End-to-end /v1/infer latency of successful requests.
# TYPE moused_infer_latency_seconds histogram
moused_infer_latency_seconds_bucket{le="0.0001"} 0
moused_infer_latency_seconds_bucket{le="+Inf"} 15
moused_infer_latency_seconds_sum 0.375
moused_infer_latency_seconds_count 15
`
	vals, err := metrics.Values(strings.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	m := &moused{devices: 2}
	served, err := m.served(vals)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, []float64{12, 3}) {
		t.Errorf("served %v", served)
	}
	if _, err := (&moused{devices: 3}).served(vals); err == nil {
		t.Error("missing device series accepted")
	}
	st := &serveStats{before: map[string]float64{"moused_infer_latency_seconds_sum": 0.125}, after: vals}
	if d := st.delta("moused_infer_latency_seconds_sum"); d != 0.25 {
		t.Errorf("delta %g, want 0.25", d)
	}
}

func TestFig9Reference(t *testing.T) {
	want, err := expectedFig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 64 {
		t.Fatalf("reference has %d points, want 64", len(want))
	}
	if err := checkGrid(want, want); err != nil {
		t.Fatal(err)
	}
	bad := append(want[:0:0], want...)
	bad[17].LatencySec = math.Nextafter(bad[17].LatencySec, 0)
	if checkGrid(bad, want) == nil {
		t.Error("a one-ulp latency change passed the check")
	}
	if checkGrid(want[:63], want) == nil {
		t.Error("a short grid passed the check")
	}
}

func TestTracerChrome(t *testing.T) {
	var none *tracer
	if id := none.begin("x", 0, -1); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	none.end(0)

	tr := newTracer()
	root := tr.begin("root", 0, -1)
	req := tr.begin("moused.roundtrip", root, 3)
	tr.end(req)
	tr.begin("open", root, -1) // never closed: not written
	tr.end(root)
	if n := len(tr.durationsUnder("moused.roundtrip", root)); n != 1 {
		t.Fatalf("%d round trips under root", n)
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID, Parent, Request int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Ph != "X" || ev.Name != "moused.roundtrip" || ev.Args.Parent != root || ev.Args.Request != 3 || ev.Tid == doc.TraceEvents[0].Tid {
		t.Errorf("request span %+v", ev)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric tables and
// workloads this package implements, and to the file's format limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type doc struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []doc `json:"end_to_end"`
		PerLayer []doc `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"perfbench"}) || spec.Command[len(spec.Command)-1] != "perfbench/run.sh" {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var wls []string
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %+v", w)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		wls = append(wls, w.Name)
	}
	if len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark implements %d workloads", wls, len(workloads))
	}
	check := func(kind string, got []doc, want []metricDoc, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		for i, d := range got {
			w := want[i]
			if d.Name != w.name || d.Unit != w.unit || d.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, d, w)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s: malformed name or unit %+v", kind, d)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	setup := 0.0
	for _, d := range spec.EndToEnd {
		if d.Name == "setup_s" {
			setup = *d.Bound
		}
	}
	for _, d := range spec.EndToEnd {
		if *d.Bound > setup {
			t.Errorf("%s bound %g exceeds setup_s bound %g", d.Name, *d.Bound, setup)
		}
	}
}

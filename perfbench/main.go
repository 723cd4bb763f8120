// Command perfbench is the repository benchmark. It runs one workload
// against the real system — the moused binary over loopback HTTP for
// serving, the bench and sim libraries in-process for the paper's Fig. 9
// sweep — checks every output, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of a traced run) as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": "U"}, ...}}
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload serve-sparse --seed 1 --seconds 15 --trace 0
//
// Throughput, set-up and the gated latencies are read on the CPU clock
// of the process under test, which leaves out the time a hypervisor
// steals; wall-clock latency from each request's scheduled send is
// printed with the other diagnostics (steal share, wall-clock set-up,
// tails with their sample counts, generator lateness, nproc, GOMAXPROCS,
// Go version and git revision) above the result, and is not gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mouse/internal/bench"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve-sparse, serve-bulk or sim-sweep")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "seconds the workload's timed phase runs")
	trace := flag.Int("trace", 0, "1 runs the workload untraced and then traced, and prints per-layer metrics")
	mousedBin := flag.String("moused", "", "moused binary to serve with")
	work := flag.String("work", ".bench_build/run", "directory for address files and traces")
	child := flag.String(coldFlag, "", "run one cold set-up step (phases or compile) and print its CPU seconds")
	spin := flag.Bool(spinFlag, false, "spin at idle priority until killed")
	flag.Parse()
	var err error
	switch {
	case *child != "":
		err = coldChild(*child)
	case *spin:
		err = spinChild()
	default:
		err = run(*name, *seed, *seconds, *trace, *mousedBin, *work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, mousedBin, work string) error {
	w, ok := workloads[name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", name)
	case seconds < 1:
		return fmt.Errorf("-seconds %d", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace %d", trace)
	case mousedBin == "":
		return fmt.Errorf("-moused is required")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	want, err := expectedFig9()
	if err != nil {
		return err
	}
	e := &env{
		moused: mousedBin,
		work:   work,
		nproc:  runtime.NumCPU(),
		seed:   seed,
		timed:  time.Duration(seconds) * time.Second,
		fig9:   want,
	}
	meta := bench.CollectRunMeta()
	rev := meta.GitRevision
	if rev == "" {
		rev = "unknown"
	}
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, revision %s\n", e.nproc, runtime.GOMAXPROCS(0), meta.GoVersion, rev)
	fmt.Printf("workload %s, seed %d, %ds timed\n", name, seed, seconds)

	m, err := w(e, nil)
	if err != nil {
		return err
	}
	printMetrics("end-to-end", endToEnd, m.e2e)
	if trace == 0 {
		return emit(m, endToEnd, m.e2e)
	}

	tr := newTracer()
	fmt.Println("traced run:")
	mt, err := w(e, tr)
	if err != nil {
		return err
	}
	printMetrics("traced end-to-end", endToEnd, mt.e2e)
	fmt.Println("tracing overhead (traced minus untraced; sim-sweep's peak RSS carries over from the untraced run):")
	for _, d := range endToEnd {
		diff := mt.e2e[d.name] - m.e2e[d.name]
		fmt.Printf("  %-26s %+.4g %s (%+.2f%%)\n", d.name, diff, d.unit, 100*diff/m.e2e[d.name])
	}
	path := filepath.Join(work, fmt.Sprintf("trace-%s-%d.json", name, seed))
	if err := writeTrace(tr, path); err != nil {
		return err
	}
	fmt.Println("trace:", path)
	printMetrics("per-layer (and what each should move)", perLayer, mt.layers)
	mt.count(m.attempted, m.failed) // the result covers both runs' operations
	return emit(mt, perLayer, mt.layers)
}

func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printMetrics(title string, docs []metricDoc, vals map[string]float64) {
	fmt.Println(title + ":")
	for _, d := range docs {
		fmt.Printf("  %-26s %12.6g %-5s  %s\n", d.name, vals[d.name], d.unit, d.about)
	}
}

// emit prints the result line with the documented metrics, refusing a
// missing one or one that is not a finite number.
func emit(m *measurement, docs []metricDoc, vals map[string]float64) error {
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	for _, d := range docs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is missing or not finite (%v)", d.name, v)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

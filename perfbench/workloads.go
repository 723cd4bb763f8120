package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"mouse/internal/bench"
	"mouse/internal/mtj"
	"mouse/internal/workload"
)

// Every run reports all seven end-to-end metrics. A workload spends its
// timed seconds on the mechanism it stresses; the metrics it does not
// drive come from short fixed reference blocks of the other mechanism,
// run after the timed phase so they never overlap it:
//
//	serve-sparse  timed sparse serving; sweep reference
//	serve-bulk    timed bulk serving; sparse reference on the same
//	              server (svm_p50_cpu_ms); sweep reference
//	sim-sweep     timed sweep; sparse reference on its own server
const (
	// serveSetups is how many times a serving run starts and warms
	// moused; setup_s is the median.
	serveSetups = 3
	// coldProcesses is how many fresh processes fill the phase cache;
	// sim-sweep's setup_s is the median. One fill is about 15 ms of CPU.
	coldProcesses = 15
	// sparseRef is the length of a sparse reference block.
	sparseRef = 10 * time.Second
	// sweepRefRounds is the rounds of a sweep reference block.
	sweepRefRounds = 4
)

// env is one benchmark invocation's fixed inputs.
type env struct {
	moused string
	work   string
	nproc  int // CPUs: moused devices, client connections and sweep workers
	seed   int64
	timed  time.Duration
	fig9   []bench.Fig9Point
}

// measurement is one workload run's figures.
type measurement struct {
	e2e       map[string]float64
	layers    map[string]float64 // traced runs only
	attempted int
	failed    int
}

func (m *measurement) count(attempted, failed int) {
	m.attempted += attempted
	m.failed += failed
}

var workloads = map[string]func(*env, *tracer) (*measurement, error){
	"serve-sparse": func(e *env, tr *tracer) (*measurement, error) { return e.serve("sparse", tr) },
	"serve-bulk":   func(e *env, tr *tracer) (*measurement, error) { return e.serve("bulk", tr) },
	"sim-sweep":    (*env).sweep,
}

// serve runs a serving workload: moused set up serveSetups times, the
// timed phase of the given shape on the last server, the reference
// blocks, and (traced) the layer probes.
func (e *env) serve(shape string, tr *tracer) (*measurement, error) {
	m := &measurement{e2e: map[string]float64{}}
	root := tr.begin("serve-"+shape, 0, -1)
	defer tr.end(root)
	pools, err := loadPools(tr, root)
	if err != nil {
		return nil, err
	}
	var reqs []request
	if shape == "sparse" {
		reqs, err = sparseSchedule(pools, e.seed, e.timed)
	} else {
		reqs, err = bulkRequests(pools, e.seed)
	}
	if err != nil {
		return nil, err
	}
	// Reference traffic draws from its own seeded stream.
	ref, err := sparseSchedule(pools, e.seed^0x5eed, sparseRef)
	if err != nil {
		return nil, err
	}
	warm, err := warmRequests(pools, shape, reqs)
	if err != nil {
		return nil, err
	}

	srv, setupCPU, err := e.setUp(serveSetups, warm, pools, tr, root)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	st, err := e.timedServe(srv, shape, shape == "bulk", e.timed, reqs, pools, tr, root)
	if err != nil {
		return nil, err
	}
	m.count(st.attempted(), st.failed())
	m.e2e["setup_s"] = setupCPU
	m.e2e["samples_per_cpu_s"] = st.samplesPerCPU()
	m.e2e["bnn_p50_cpu_ms"] = st.cpuP50(bnnModel)
	if shape == "sparse" {
		m.e2e["svm_p50_cpu_ms"] = st.cpuP50(svmModel)
	} else {
		rst, err := e.timedServe(srv, "sparse reference", false, sparseRef, ref, pools, tr, root)
		if err != nil {
			return nil, err
		}
		m.count(rst.attempted(), rst.failed())
		m.e2e["svm_p50_cpu_ms"] = rst.cpuP50(svmModel)
	}
	if m.e2e["peak_rss_mb"], err = peakRSSMB(srv.pid); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}

	fillPhases()
	if err := e.sweepRounds(m, func(n int, _ time.Duration) bool { return n == sweepRefRounds }, tr, root); err != nil {
		return nil, err
	}

	if tr != nil {
		if m.layers, err = st.layers(pools, reqs, tr); err != nil {
			return nil, err
		}
		if err := e.commonLayers(m.layers, tr, root); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// sweep runs sim-sweep: cold phase-cache fills for setup_s, timed sweep
// rounds, then a sparse serving reference block on its own server.
func (e *env) sweep(tr *tracer) (*measurement, error) {
	m := &measurement{e2e: map[string]float64{}}
	root := tr.begin("sim-sweep", 0, -1)
	defer tr.end(root)
	start := time.Now()
	phases, err := cold("phases", coldProcesses)
	if err != nil {
		return nil, err
	}
	m.e2e["setup_s"] = median(phases)
	fmt.Printf("setup: %d cold phase-cache fills, median %.4g CPU s, %.3fs wall in all\n",
		len(phases), m.e2e["setup_s"], time.Since(start).Seconds())
	fillPhases()

	if err := e.sweepRounds(m, func(_ int, elapsed time.Duration) bool { return elapsed >= e.timed }, tr, root); err != nil {
		return nil, err
	}
	if m.e2e["peak_rss_mb"], err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}

	pools, err := loadPools(tr, root)
	if err != nil {
		return nil, err
	}
	ref, err := sparseSchedule(pools, e.seed^0x5eed, sparseRef)
	if err != nil {
		return nil, err
	}
	warm, err := warmRequests(pools, "sparse", ref)
	if err != nil {
		return nil, err
	}
	srv, _, err := e.setUp(1, warm, pools, tr, root)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	st, err := e.timedServe(srv, "sparse reference", false, sparseRef, ref, pools, tr, root)
	if err != nil {
		return nil, err
	}
	m.count(st.attempted(), st.failed())
	m.e2e["svm_p50_cpu_ms"] = st.cpuP50(svmModel)
	m.e2e["bnn_p50_cpu_ms"] = st.cpuP50(bnnModel)
	m.e2e["samples_per_cpu_s"] = st.samplesPerCPU()
	if err := srv.stop(); err != nil {
		return nil, err
	}

	if tr != nil {
		if m.layers, err = st.layers(pools, ref, tr); err != nil {
			return nil, err
		}
		if err := e.commonLayers(m.layers, tr, root); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// fillPhases compiles every Fig. 9 benchmark's phase list in this
// process, so timed sweeps find the cache full.
func fillPhases() {
	for _, s := range workload.Benchmarks() {
		s.Phases()
	}
}

// sweepRounds runs sweep rounds until done says stop, then records the
// sweep rates and grid outcomes in m and prints the steal share.
func (e *env) sweepRounds(m *measurement, done func(rounds int, elapsed time.Duration) bool, tr *tracer, parent int) error {
	sw := &sweepStats{}
	steal0, err := readProcStat()
	if err != nil {
		return err
	}
	start := time.Now()
	for !done(len(sw.observed), time.Since(start)) {
		sw.round(e.nproc, e.fig9, tr, parent)
	}
	steal1, err := readProcStat()
	if err != nil {
		return err
	}
	m.count(sw.attempted, sw.failed)
	if sw.firstErr != nil {
		fmt.Println("sweep error:", sw.firstErr)
	}
	m.e2e["sweeps_per_cpu_s"] = median(sw.unobserved) // median sorts; the range is printed below
	m.e2e["observed_sweeps_per_cpu_s"] = median(sw.observed)
	fmt.Printf("sweep: %d rounds, %d grids, %d failed, %.2fs wall; steal %.2f%%; unobserved passes %.4g..%.4g grids/CPU s, observed %.4g..%.4g\n",
		len(sw.observed), sw.attempted, sw.failed, time.Since(start).Seconds(), 100*stealShare(steal0, steal1),
		sw.unobserved[0], sw.unobserved[len(sw.unobserved)-1], sw.observed[0], sw.observed[len(sw.observed)-1])
	return nil
}

// warmRequests picks one warm-up request per model in the workload's
// own shape: the first scheduled request of each model, or a
// capacity-sized svm-adult request for bulk traffic.
func warmRequests(pools map[string]*pool, shape string, reqs []request) (map[string]request, error) {
	warm := map[string]request{}
	for _, r := range reqs {
		if _, ok := warm[r.model]; !ok {
			warm[r.model] = r
		}
	}
	for _, model := range models {
		if _, ok := warm[model]; ok {
			continue
		}
		n := sparseSamples
		if shape == "bulk" {
			n = pools[model].hb.Capacity
		}
		r, err := pools[model].request(model, rand.New(rand.NewSource(1)), n)
		if err != nil {
			return nil, err
		}
		warm[model] = r
	}
	return warm, nil
}

// setUp starts and warms moused n times and keeps the last server
// running. It returns the median CPU seconds moused spent from exec to
// warm-up proof.
func (e *env) setUp(n int, warm map[string]request, pools map[string]*pool, tr *tracer, parent int) (*moused, float64, error) {
	var cpus, walls []float64
	for {
		sp := tr.begin("moused.setup", parent, -1)
		start := time.Now()
		srv, err := startMoused(e.moused, e.work, e.nproc, e.nproc)
		if err != nil {
			return nil, 0, err
		}
		if err := srv.warmUp(warm, pools); err != nil {
			srv.stop()
			return nil, 0, err
		}
		cpu, err := srv.cpu()
		if err != nil {
			srv.stop()
			return nil, 0, err
		}
		walls = append(walls, time.Since(start).Seconds())
		cpus = append(cpus, cpu)
		tr.end(sp)
		if len(cpus) == n {
			fmt.Printf("setup: %d starts, CPU %.4g s, wall %.4g s\n", n, cpus, walls)
			return srv, median(cpus), nil
		}
		if err := srv.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// commonLayers adds the layer probes that do not depend on traffic: the
// truth-table word kernel, cold phase-cache fills, a cold model compile
// and the simulation layers.
func (e *env) commonLayers(out map[string]float64, tr *tracer, parent int) error {
	sw, err := switchWordNs(tr, parent)
	if err != nil {
		return err
	}
	out["mtj.switchword_ns"] = sw
	phases, err := cold("phases", coldProcesses)
	if err != nil {
		return err
	}
	out["workload.phases_ms"] = 1e3 * median(phases)
	compile, err := cold("compile", 1)
	if err != nil {
		return err
	}
	out["workload.compile_ms"] = 1e3 * compile[0]
	sim, err := simLayers(tr, parent)
	if err != nil {
		return err
	}
	for k, v := range sim {
		out[k] = v
	}
	return nil
}

// switchSink keeps the timed SwitchWord calls live.
var switchSink uint64

// switchWordNs times TruthTable.SwitchWord over every ModernSTT gate on
// a fixed pseudo-random word stream and returns the median ns per call
// of five repetitions.
func switchWordNs(tr *tracer, parent int) (float64, error) {
	cfg := mtj.ModernSTT()
	var tables []mtj.TruthTable
	for g := 0; g < mtj.NumGates; g++ {
		t, err := mtj.Table(mtj.GateKind(g), cfg)
		if err != nil {
			continue // gates infeasible under this technology are never executed
		}
		tables = append(tables, t)
	}
	if len(tables) == 0 {
		return 0, fmt.Errorf("no feasible ModernSTT gate")
	}
	rng := rand.New(rand.NewSource(1))
	words := make([]uint64, 3<<12)
	for i := range words {
		words[i] = rng.Uint64()
	}
	sp := tr.begin("mtj.switchword", parent, -1)
	defer tr.end(sp)
	var runs []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		calls := 0
		for pass := 0; pass < 16; pass++ {
			for ti := range tables {
				t := &tables[ti]
				for i := 0; i+2 < len(words); i += 3 {
					switchSink ^= t.SwitchWord(words[i], words[i+1], words[i+2])
					calls++
				}
			}
		}
		runs = append(runs, float64(time.Since(start).Nanoseconds())/float64(calls))
	}
	return median(runs), nil
}

// decodeMs times encoding/json decoding of up to 32 of the workload's
// request bodies into the server's request shape and returns the median.
func decodeMs(reqs []request, tr *tracer, parent int) (float64, error) {
	var d []float64
	for i := 0; i < len(reqs) && i < 32; i++ {
		var v struct {
			Workload string  `json:"workload"`
			Samples  [][]int `json:"samples"`
		}
		sp := tr.begin("moused.decode", parent, -1)
		start := time.Now()
		err := json.Unmarshal(reqs[i].body, &v)
		d = append(d, ms(time.Since(start)))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return median(d), nil
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mouse/internal/metrics"
	"mouse/internal/workload"
)

// The serving side: moused runs as a child process on a loopback port
// and the benchmark drives POST /v1/infer with pre-encoded bodies,
// checking every prediction against the offline batched classifier.

const (
	svmModel = "svm-adult"
	bnnModel = "bnn-hidden16"

	// sparseRate is the open-loop arrival rate of serve-sparse, low
	// enough that most batches carry a single request.
	sparseRate = 20.0
	// sparseSamples is the samples per serve-sparse request.
	sparseSamples = 8
	// bulkBodies is how many distinct capacity-sized bodies serve-bulk
	// cycles through; each is about half a megabyte of JSON.
	bulkBodies = 16
)

// models is the served pair in a fixed order.
var models = []string{svmModel, bnnModel}

// pool is one model's input pool and the offline labels of its samples.
type pool struct {
	hb      workload.HotBatch
	samples [][]int
	labels  []int
}

// loadPools trains both models in the benchmark process and labels each
// model's pool with the offline batched classifier: the reference every
// served prediction must match. Each model's first NewBatched call
// (training included) is recorded as a workload.compile span.
func loadPools(tr *tracer, parent int) (map[string]*pool, error) {
	out := map[string]*pool{}
	for _, name := range models {
		hb, err := workload.HotBatchByName(name)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("workload.compile", parent, -1)
		cls, err := hb.NewBatched()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		p := &pool{hb: hb, samples: hb.Samples(hb.Capacity)}
		if p.labels, err = cls(p.samples); err != nil {
			return nil, fmt.Errorf("label %s pool: %w", name, err)
		}
		out[name] = p
	}
	return out, nil
}

// request is one generated inference request.
type request struct {
	model string
	idx   []int // pool indices of its samples
	body  []byte
	at    time.Duration // scheduled send, from the start of the phase (open loop)
}

func (p *pool) request(model string, rng *rand.Rand, n int) (request, error) {
	r := request{model: model, idx: make([]int, n)}
	samples := make([][]int, n)
	for i := range r.idx {
		r.idx[i] = rng.Intn(len(p.samples))
		samples[i] = p.samples[r.idx[i]]
	}
	body, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Samples  [][]int `json:"samples"`
	}{model, samples})
	r.body = body
	return r, err
}

// sparseSchedule is serve-sparse's open-loop input: Poisson arrivals at
// sparseRate over d, each request a seeded coin's choice of model with
// sparseSamples seeded pool samples. The same seed gives the same
// schedule.
func sparseSchedule(pools map[string]*pool, seed int64, d time.Duration) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []request
	t := 0.0
	for {
		t += rng.ExpFloat64() / sparseRate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out, nil
		}
		model := models[rng.Intn(len(models))]
		r, err := pools[model].request(model, rng, sparseSamples)
		if err != nil {
			return nil, err
		}
		r.at = at
		out = append(out, r)
	}
}

// bulkRequests is serve-bulk's input: bulkBodies capacity-sized
// bnn-hidden16 requests of seeded pool samples, cycled by the clients.
func bulkRequests(pools map[string]*pool, seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	p := pools[bnnModel]
	out := make([]request, bulkBodies)
	for i := range out {
		var err error
		if out[i], err = p.request(bnnModel, rng, p.hb.Capacity); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// moused is one running server process.
type moused struct {
	cmd     *exec.Cmd
	pid     int
	base    string
	client  *http.Client
	devices int
	exited  chan struct{} // closed once the process has been reaped
}

// startMoused launches bin on an OS-assigned loopback port with a
// continuous-power fleet of devices devices and waits until it listens.
// Only the flags that the serving surface keeps are passed.
func startMoused(bin, workDir string, devices, conns int) (*moused, error) {
	addrFile := filepath.Join(workDir, fmt.Sprintf("moused-%d.addr", time.Now().UnixNano()))
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-fleet-power", "continuous", "-fleet-devices", strconv.Itoa(devices))
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even one that crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start moused: %w", err)
	}
	m := &moused{cmd: cmd, pid: cmd.Process.Pid, devices: devices, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a SIGTERM exit status is expected; stop reports hangs
		close(m.exited)
	}()
	defer os.Remove(addrFile)
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && bytes.HasSuffix(b, []byte("\n")) {
			m.base = "http://" + string(bytes.TrimSpace(b))
			break
		}
		select {
		case <-m.exited:
			return nil, fmt.Errorf("moused exited before listening: %v", cmd.ProcessState)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			m.stop()
			return nil, errors.New("moused did not write its address within 30s")
		}
	}
	m.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return m, nil
}

// stop terminates the server and waits for it to exit. Stopping a
// stopped server does nothing.
func (m *moused) stop() error {
	select {
	case <-m.exited:
		return nil
	default:
	}
	if m.client != nil {
		m.client.CloseIdleConnections()
	}
	_ = m.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-m.exited:
		return nil
	case <-time.After(10 * time.Second):
		_ = m.cmd.Process.Kill()
		<-m.exited
		return errors.New("moused ignored SIGTERM for 10s")
	}
}

func (m *moused) cpu() (float64, error) { return processCPU(m.pid) }

// closeBody drains and closes a response body, so the keep-alive
// connection is reused instead of torn down.
func closeBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // a failed drain only costs the connection
	resp.Body.Close()
}

// scrape reads /metrics into canonical series keys.
func (m *moused) scrape() (map[string]float64, error) {
	resp, err := m.client.Get(m.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: %s", resp.Status)
	}
	return metrics.Values(resp.Body)
}

// capacities reads the served batch capacities from /v1/workloads.
func (m *moused) capacities() (map[string]int, error) {
	resp, err := m.client.Get(m.base + "/v1/workloads")
	if err != nil {
		return nil, fmt.Errorf("workloads: %w", err)
	}
	defer closeBody(resp)
	var infos []struct {
		Name     string `json:"name"`
		Capacity int    `json:"capacity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("workloads: %w", err)
	}
	out := map[string]int{}
	for _, wi := range infos {
		out[wi.Name] = wi.Capacity
	}
	return out, nil
}

// infer posts one pre-encoded request and checks its predictions against
// the offline labels. Any transport error, non-200 status or mismatch is
// an error.
func (m *moused) infer(r request, p *pool) error {
	resp, err := m.client.Post(m.base+"/v1/infer", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var out struct {
		Predictions []int `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if len(out.Predictions) != len(r.idx) {
		return fmt.Errorf("%d predictions for %d samples", len(out.Predictions), len(r.idx))
	}
	for i, k := range r.idx {
		if out.Predictions[i] != p.labels[k] {
			return fmt.Errorf("%s sample %d: served %d, offline %d", r.model, i, out.Predictions[i], p.labels[k])
		}
	}
	return nil
}

// served reads moused_fleet_device_served_total per device.
func (m *moused) served(vals map[string]float64) ([]float64, error) {
	out := make([]float64, m.devices)
	for i := range out {
		v, ok := vals[fmt.Sprintf("moused_fleet_device_served_total{device=%q}", strconv.Itoa(i))]
		if !ok {
			return nil, fmt.Errorf("no served count for device %d", i)
		}
		out[i] = v
	}
	return out, nil
}

// warmUp sends each model's warm-up request sequentially until every
// device has served that model at least once, proven from
// moused_fleet_device_served_total. Devices compile their engines
// lazily on a model's first batch, so afterwards no compile is left for
// the timed phase.
func (m *moused) warmUp(warm map[string]request, pools map[string]*pool) error {
	for _, model := range models {
		vals, err := m.scrape()
		if err != nil {
			return err
		}
		before, err := m.served(vals)
		if err != nil {
			return err
		}
		for sent := 0; ; {
			for i := 0; i < m.devices; i++ {
				if err := m.infer(warm[model], pools[model]); err != nil {
					return fmt.Errorf("warm-up %s: %w", model, err)
				}
				sent++
			}
			if vals, err = m.scrape(); err != nil {
				return err
			}
			after, err := m.served(vals)
			if err != nil {
				return err
			}
			missing := -1
			for i := range after {
				if after[i] <= before[i] {
					missing = i
				}
			}
			if missing < 0 {
				break
			}
			if sent >= 8*m.devices {
				return fmt.Errorf("warm-up %s: device %d served nothing after %d requests", model, missing, sent)
			}
		}
	}
	return nil
}

// outcome is one timed request.
type outcome struct {
	model   string
	samples int
	sent    time.Duration // scheduled (open loop) or actual (closed loop) send, from the phase start
	done    time.Duration // full reply, from the phase start
	late    time.Duration // how late the generator sent it
	cpu     float64       // moused CPU seconds from send to full reply
	err     error
}

// latency is the time from the request's scheduled send to its full reply.
func (o outcome) latency() time.Duration { return o.done - o.sent }

// runOpen sends reqs on their open-loop schedule, each from its own
// goroutine (the transport caps the connections), and waits for every
// reply. A request's clock starts at its scheduled time, so a stalled
// generator or a connection wait shows as latency.
func (m *moused) runOpen(start time.Time, reqs []request, pools map[string]*pool, tr *tracer, parent int) []outcome {
	out := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		due := start.Add(r.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, r request, due time.Time) {
			defer wg.Done()
			late := time.Since(due)
			c0, _ := m.cpu() // fails only once moused is gone, which fails the request too
			sp := tr.begin("moused.roundtrip", parent, i)
			err := m.infer(r, pools[r.model])
			tr.end(sp)
			c1, _ := m.cpu()
			out[i] = outcome{model: r.model, samples: len(r.idx), sent: r.at, done: time.Since(start), late: late, err: err, cpu: c1 - c0}
		}(i, r, due)
	}
	wg.Wait()
	return out
}

// runClosed runs clients closed-loop clients for d: each sends its next
// request when the previous reply arrives, cycling reqs from its own
// offset. Requests already sent at the deadline complete.
func (m *moused) runClosed(start time.Time, reqs []request, pools map[string]*pool, clients int, d time.Duration, tr *tracer, parent int) []outcome {
	var (
		mu  sync.Mutex
		out []outcome
		wg  sync.WaitGroup
		seq int
	)
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; time.Now().Before(deadline); k += clients {
				r := reqs[k%len(reqs)]
				mu.Lock()
				id := seq
				seq++
				mu.Unlock()
				sent := time.Since(start)
				c0, _ := m.cpu() // fails only once moused is gone, which fails the request too
				sp := tr.begin("moused.roundtrip", parent, id)
				err := m.infer(r, pools[r.model])
				tr.end(sp)
				c1, _ := m.cpu()
				o := outcome{model: r.model, samples: len(r.idx), sent: sent, done: time.Since(start), err: err, cpu: c1 - c0}
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}

// latencies collects the successful requests' latencies of one model, in
// milliseconds.
func latencies(outs []outcome, model string) []float64 {
	var out []float64
	for _, o := range outs {
		if o.err == nil && o.model == model {
			out = append(out, ms(o.latency()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// firstErrors returns up to n distinct error messages, for the log.
func firstErrors(outs []outcome, n int) []string {
	seen := map[string]bool{}
	var out []string
	for _, o := range outs {
		if o.err != nil && !seen[o.err.Error()] && len(out) < n {
			seen[o.err.Error()] = true
			out = append(out, o.err.Error())
		}
	}
	sort.Strings(out)
	return out
}

// serveStats is one timed serving phase.
type serveStats struct {
	span          int // the phase span; request spans are its children
	outs          []outcome
	cpu           float64 // moused CPU seconds over the phase
	before, after map[string]float64
	caps          map[string]int
}

// timedServe runs one timed phase of reqs against srv, open-loop on the
// schedule or, when closed, closed-loop with e.nproc clients for d, with
// the CPUs kept busy by spinners, and prints its diagnostics. Scrapes
// happen outside the CPU window.
func (e *env) timedServe(srv *moused, label string, closed bool, d time.Duration, reqs []request, pools map[string]*pool, tr *tracer, parent int) (*serveStats, error) {
	st := &serveStats{}
	var err error
	if st.caps, err = srv.capacities(); err != nil {
		return nil, err
	}
	if st.before, err = srv.scrape(); err != nil {
		return nil, err
	}
	steal0, err := readProcStat()
	if err != nil {
		return nil, err
	}
	pt0, err := readPidStat(srv.pid)
	if err != nil {
		return nil, err
	}
	spin, err := startSpinners(e.nproc)
	if err != nil {
		return nil, err
	}
	defer spin.stop()
	c0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	st.span = tr.begin("phase "+label, parent, -1)
	start := time.Now()
	if closed {
		st.outs = srv.runClosed(start, reqs, pools, e.nproc, d, tr, st.span)
	} else {
		st.outs = srv.runOpen(start, reqs, pools, tr, st.span)
	}
	wall := time.Since(start)
	tr.end(st.span)
	c1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	st.cpu = c1 - c0
	spin.stop()
	pt1, err := readPidStat(srv.pid)
	if err != nil {
		return nil, err
	}
	steal1, err := readProcStat()
	if err != nil {
		return nil, err
	}
	if st.after, err = srv.scrape(); err != nil {
		return nil, err
	}

	ticks := float64(pt1.User+pt1.System) - float64(pt0.User+pt0.System)
	userShare := 0.0
	if ticks > 0 {
		userShare = float64(pt1.User-pt0.User) / ticks
	}
	fmt.Printf("%s: %d requests, %d failed, %.2fs wall; moused %.4f CPU s (%.0f%% user); steal %.2f%%\n",
		label, st.attempted(), st.failed(), wall.Seconds(), st.cpu, 100*userShare, 100*stealShare(steal0, steal1))
	for _, model := range models {
		lat := latencies(st.outs, model)
		if len(lat) == 0 {
			continue
		}
		fmt.Printf("%s %s wall latency ms: p50 %.4g, p90 %.4g (%d beyond), p99 %.4g (%d beyond), of %d; moused CPU per request p50 %.4g ms\n",
			label, model, percentile(lat, 50), percentile(lat, 90), tailCount(len(lat), 90),
			percentile(lat, 99), tailCount(len(lat), 99), len(lat), st.cpuP50(model))
	}
	if !closed {
		late := st.lateness()
		fmt.Printf("%s generator lateness ms: p50 %.4g, max %.4g\n", label, percentile(late, 50), percentile(late, 100))
	}
	for _, msg := range firstErrors(st.outs, 5) {
		fmt.Printf("%s error: %s\n", label, msg)
	}
	return st, nil
}

func (st *serveStats) attempted() int { return len(st.outs) }

func (st *serveStats) failed() int {
	n := 0
	for _, o := range st.outs {
		if o.err != nil {
			n++
		}
	}
	return n
}

// samplesPerCPU is the correctly answered samples per moused CPU second.
func (st *serveStats) samplesPerCPU() float64 {
	n := 0
	for _, o := range st.outs {
		if o.err == nil {
			n += o.samples
		}
	}
	return float64(n) / st.cpu
}

// cpuP50 is the median, over one model's successful requests, of the
// moused CPU time that elapsed between each request's send and its full
// reply, in milliseconds: the server work a request waited on (its own,
// and that of requests it overlapped), without the time the host did
// not run moused.
func (st *serveStats) cpuP50(model string) float64 {
	var c []float64
	for _, o := range st.outs {
		if o.err == nil && o.model == model {
			c = append(c, 1e3*o.cpu)
		}
	}
	return percentile(c, 50)
}

func (st *serveStats) lateness() []float64 {
	out := make([]float64, len(st.outs))
	for i, o := range st.outs {
		out[i] = ms(o.late)
	}
	return out
}

// delta is the change of one /metrics series over the phase.
func (st *serveStats) delta(key string) float64 { return st.after[key] - st.before[key] }

// layers derives the serving per-layer metrics of a traced phase: client
// round trips from its spans, fleet figures from /metrics deltas, and
// in-process probes of the classifier and the request decoder on this
// phase's own requests.
func (st *serveStats) layers(pools map[string]*pool, reqs []request, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	rt := tr.durationsUnder("moused.roundtrip", st.span)
	out["moused.roundtrip_ms"] = percentile(rt, 50)
	infer := 1e3 * st.delta("moused_infer_latency_seconds_sum") / st.delta("moused_infer_latency_seconds_count")
	out["fleet.infer_ms"] = infer
	out["moused.http_ms"] = mean(rt) - infer

	share := map[string]float64{}
	for _, o := range st.outs {
		share[o.model] += 1 / float64(len(st.outs))
	}
	classify := 0.0
	for _, model := range models {
		if share[model] == 0 {
			continue
		}
		p50, err := classifyMs(pools[model], reqs, model, tr, st.span)
		if err != nil {
			return nil, err
		}
		classify += share[model] * p50
	}
	out["workload.classify_ms"] = classify
	out["fleet.wait_ms"] = infer - classify

	batches := st.delta("moused_fleet_batches_total")
	samples := st.delta("moused_fleet_batched_samples_total")
	out["fleet.samples_per_batch"] = samples / batches
	slots := 0.0
	for model, s := range share {
		slots += batches * s * float64(st.caps[model])
	}
	out["fleet.lane_fill"] = samples / slots
	out["fleet.rejected"] = st.delta("moused_fleet_rejected_total")

	late := st.lateness()
	out["loadgen.late_ms"] = percentile(late, 50)
	out["loadgen.late_max_ms"] = percentile(late, 100)
	dec, err := decodeMs(reqs, tr, st.span)
	if err != nil {
		return nil, err
	}
	out["moused.decode_ms"] = dec
	return out, nil
}

// classifyMs times the offline batched classifier on up to 20 of the
// phase's requests of one model, at their exact fill, and returns the
// median call in milliseconds.
func classifyMs(p *pool, reqs []request, model string, tr *tracer, parent int) (float64, error) {
	cls, err := p.hb.NewBatched()
	if err != nil {
		return 0, err
	}
	var d []float64
	for _, r := range reqs {
		if r.model != model {
			continue
		}
		samples := make([][]int, len(r.idx))
		for i, k := range r.idx {
			samples[i] = p.samples[k]
		}
		sp := tr.begin("workload.classify", parent, -1)
		start := time.Now()
		_, err := cls(samples)
		d = append(d, ms(time.Since(start)))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		if len(d) == 20 {
			break
		}
	}
	return percentile(d, 50), nil
}

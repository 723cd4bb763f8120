package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"mouse/internal/fleet"
	"mouse/internal/metrics"
	"mouse/internal/probe"
)

// maxInferBody bounds a /v1/infer request body (the largest legal
// batch, bnn-hidden16's 4096 64-feature samples, is well under 8 MiB
// of JSON).
const maxInferBody = 8 << 20

// server is moused's state: the inference fleet and a metrics registry
// that reads it at scrape time.
//
// Each fleet device feeds its own lock-free probe.Stats shard, so
// serving /metrics adds nothing to the replay hot path: all merging
// happens per scrape via Stats.Merge into a fresh accumulator.
type server struct {
	reg   *metrics.Registry
	fleet *fleet.Fleet

	inferRequests *metrics.CounterVec
	inferSamples  *metrics.Counter
	inferLatency  *metrics.Histogram
}

func newServer(fcfg fleet.Config) (*server, error) {
	fl, err := fleet.New(fcfg)
	if err != nil {
		return nil, err
	}
	s := &server{reg: metrics.New(), fleet: fl}

	// Every probe family under mouse_probe_* reads one merged snapshot
	// of all device shards, taken once per scrape.
	metrics.ExportStats(s.reg, "mouse_probe", s.fleetSection)

	// The inference fleet: request counters and latency from the HTTP
	// handler, queue depth / charge / batch totals read from the fleet
	// at scrape time.
	s.inferRequests = s.reg.NewCounterVec("moused_infer_requests_total",
		"Inference API requests by workload and outcome (ok, rejected, invalid, error).",
		"workload", "outcome")
	s.inferSamples = s.reg.NewCounter("moused_infer_samples_total",
		"Samples classified through the inference API.")
	s.inferLatency = s.reg.NewHistogram("moused_infer_latency_seconds",
		"End-to-end /v1/infer latency of successful requests.",
		metrics.ExpBuckets(1e-4, 4, 10))
	s.reg.Collect("moused_fleet_devices", "gauge",
		"Inference devices in the serving fleet.",
		func() []metrics.Sample { return []metrics.Sample{{Value: float64(fl.Devices())}} })
	s.reg.Collect("moused_fleet_queue_depth", "gauge",
		"Admission-queue depth per served workload.",
		func() []metrics.Sample {
			infos := fl.Workloads()
			out := make([]metrics.Sample, 0, len(infos))
			for _, wi := range infos {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{{Name: "workload", Value: wi.Name}},
					Value:  float64(fl.QueueDepth(wi.Name))})
			}
			return out
		})
	s.reg.Collect("moused_fleet_device_charge_joules", "gauge",
		"Stored capacitor energy per fleet device.",
		func() []metrics.Sample {
			out := make([]metrics.Sample, 0, fl.Devices())
			for i := 0; i < fl.Devices(); i++ {
				j, _ := fl.DeviceCharge(i)
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{{Name: "device", Value: strconv.Itoa(i)}},
					Value:  j})
			}
			return out
		})
	s.reg.Collect("moused_fleet_device_served_total", "counter",
		"Inference requests answered per fleet device.",
		func() []metrics.Sample {
			out := make([]metrics.Sample, 0, fl.Devices())
			for i := 0; i < fl.Devices(); i++ {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{{Name: "device", Value: strconv.Itoa(i)}},
					Value:  float64(fl.DeviceServed(i))})
			}
			return out
		})
	s.reg.Collect("moused_fleet_batches_total", "counter",
		"Batches dispatched to fleet devices.",
		func() []metrics.Sample { return []metrics.Sample{{Value: float64(fl.Batches())}} })
	s.reg.Collect("moused_fleet_batched_samples_total", "counter",
		"Samples dispatched to fleet devices.",
		func() []metrics.Sample { return []metrics.Sample{{Value: float64(fl.BatchedSamples())}} })
	s.reg.Collect("moused_fleet_rejected_total", "counter",
		"Inference requests rejected at admission (queue full).",
		func() []metrics.Sample { return []metrics.Sample{{Value: float64(fl.Rejected())}} })
	return s, nil
}

// Close stops the inference fleet; queued requests fail with 503.
func (s *server) Close() { s.fleet.Stop() }

// fleetSection merges every fleet device's probe shard into a fresh
// accumulator and snapshots it: the same Section a post-run report
// would serialize, so a scrape and a report read identical numbers by
// construction.
func (s *server) fleetSection() *probe.Section {
	agg := &probe.Stats{}
	for _, d := range s.fleet.DeviceStats() {
		agg.Merge(d)
	}
	return agg.Section()
}

// handler serves moused's HTTP surface: Prometheus exposition on
// /metrics, liveness on /healthz, the inference API under /v1/, and
// the standard pprof handlers under /debug/pprof/.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/infer", s.serveInfer)
	mux.HandleFunc("/v1/workloads", s.serveWorkloads)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// inferRequest is the /v1/infer request document.
type inferRequest struct {
	Workload string  `json:"workload"`
	Samples  [][]int `json:"samples"`
}

// inferResponse is the /v1/infer success document: Predictions[i]
// labels Samples[i].
type inferResponse struct {
	Workload    string `json:"workload"`
	Predictions []int  `json:"predictions"`
}

// errorResponse is the JSON error document for the inference API.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(doc)
}

// serveInfer is POST /v1/infer: decode the sample batch, run it through
// the fleet (which batches it with concurrent requests onto one
// bit-sliced replay), and map fleet errors to HTTP statuses — 400 for
// invalid requests, 429 + Retry-After for backpressure, 503 while
// shutting down.
func (s *server) serveInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	req, err := readInfer(w, r)
	if err != nil {
		s.inferRequests.With("unknown", "invalid").Inc()
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	// Unknown workload names come from clients, so they must not mint
	// new label values.
	label := req.Workload
	if !s.fleet.HasWorkload(label) {
		label = "unknown"
	}
	start := time.Now()
	preds, err := s.fleet.Infer(r.Context(), req.Workload, req.Samples)
	if err != nil {
		var oe *fleet.OverloadedError
		switch {
		case errors.As(err, &oe):
			s.inferRequests.With(label, "rejected").Inc()
			secs := int(math.Ceil(oe.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		case errors.Is(err, fleet.ErrInvalid):
			s.inferRequests.With(label, "invalid").Inc()
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		case errors.Is(err, fleet.ErrStopped):
			s.inferRequests.With(label, "error").Inc()
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		default:
			s.inferRequests.With(label, "error").Inc()
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		}
		return
	}
	s.inferLatency.Observe(time.Since(start).Seconds())
	s.inferRequests.With(label, "ok").Inc()
	s.inferSamples.Add(float64(len(req.Samples)))
	writeJSON(w, http.StatusOK, inferResponse{Workload: req.Workload, Predictions: preds})
}

// serveWorkloads is GET /v1/workloads: the served workloads and their
// batch geometry.
func (s *server) serveWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.fleet.Workloads())
}

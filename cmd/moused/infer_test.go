package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mouse/internal/fleet"
	"mouse/internal/metrics"
	"mouse/internal/workload"
)

// postInfer POSTs one inference request and decodes the response.
func postInfer(t *testing.T, ts *httptest.Server, req inferRequest) (*http.Response, inferResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, ts, body)
}

// postBody POSTs a raw /v1/infer body and decodes a 200 response.
func postBody(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, inferResponse) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out inferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding /v1/infer response: %v", err)
		}
	}
	return resp, out
}

// TestInferMatchesOfflineBatch is the acceptance differential test:
// predictions served over POST /v1/infer — batched by the fleet, placed
// by charge, stalled for harvest — must be bit-identical to the offline
// BatchMachine path for every served workload.
func TestInferMatchesOfflineBatch(t *testing.T) {
	cfg := fleet.DefaultConfig()
	cfg.Devices = 2
	cfg.Mode = fleet.Harvested
	cfg.HarvestW = 0.5 // µs-scale stalls: exercise the outage path, keep the test fast
	cfg.BatchLinger = 200 * time.Microsecond
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	const chunks, chunkSize = 3, 8
	for _, hb := range workload.HotBatches() {
		offline, err := hb.NewBatched()
		if err != nil {
			t.Fatal(err)
		}
		samples := hb.Samples(chunks * chunkSize)
		for c := 0; c < chunks; c++ {
			chunk := samples[c*chunkSize : (c+1)*chunkSize]
			want, err := offline(chunk)
			if err != nil {
				t.Fatal(err)
			}
			resp, out := postInfer(t, ts, inferRequest{Workload: hb.Name, Samples: chunk})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s chunk %d: %s", hb.Name, c, resp.Status)
			}
			if len(out.Predictions) != len(want) {
				t.Fatalf("%s chunk %d: %d predictions for %d samples", hb.Name, c, len(out.Predictions), len(want))
			}
			for i := range want {
				if out.Predictions[i] != want[i] {
					t.Errorf("%s chunk %d sample %d: served %d, offline %d",
						hb.Name, c, i, out.Predictions[i], want[i])
				}
			}
		}
	}

	// The fleet families must be live after serving: latency counted,
	// per-device charge exported, queue depth present, and the merged
	// probe view must show the harvest stalls as outages.
	body := scrape(t, ts, "/metrics")
	if err := metrics.Lint(strings.NewReader(string(body))); err != nil {
		t.Fatalf("/metrics fails lint: %v\n%s", err, body)
	}
	vals, err := metrics.Values(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	wantOK := float64(2 * chunks)
	for key, want := range map[string]float64{
		`moused_infer_requests_total{outcome="ok",workload="svm-adult"}`:    chunks,
		`moused_infer_requests_total{outcome="ok",workload="bnn-hidden16"}`: chunks,
		"moused_infer_samples_total":                                        wantOK * chunkSize,
		"moused_infer_latency_seconds_count":                                wantOK,
		"moused_fleet_devices":                                              2,
	} {
		if vals[key] != want {
			t.Errorf("%s = %g, want %g", key, vals[key], want)
		}
	}
	for _, key := range []string{
		`moused_fleet_device_charge_joules{device="0"}`,
		`moused_fleet_device_charge_joules{device="1"}`,
		`moused_fleet_queue_depth{workload="svm-adult"}`,
	} {
		if _, ok := vals[key]; !ok {
			t.Errorf("missing series %s", key)
		}
	}
	if vals["moused_fleet_batched_samples_total"] != wantOK*chunkSize {
		t.Errorf("moused_fleet_batched_samples_total = %g, want %g",
			vals["moused_fleet_batched_samples_total"], wantOK*chunkSize)
	}
	if vals["mouse_probe_outages_total"] == 0 {
		t.Error("harvested serving recorded no outages in the merged probe view")
	}
}

// TestInferEndpointValidation maps client mistakes to HTTP statuses.
func TestInferEndpointValidation(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/infer: %s, want 405", resp.Status)
	}

	// A body is read under an 8 MiB limit: the same valid document
	// padded with an unknown string field is served below the limit
	// and refused above it.
	hb, err := workload.HotBatchByName("svm-adult")
	if err != nil {
		t.Fatal(err)
	}
	samples := hb.Samples(4)
	offline, err := hb.NewBatched()
	if err != nil {
		t.Fatal(err)
	}
	want, err := offline(samples)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := json.Marshal(samples)
	if err != nil {
		t.Fatal(err)
	}
	padded := func(size int) []byte {
		head := `{"workload":"svm-adult","pad":"`
		tail := `","samples":` + string(valid) + `}`
		return []byte(head + strings.Repeat("x", size-len(head)-len(tail)) + tail)
	}

	for name, body := range map[string][]byte{
		"malformed":        []byte("{not json"),
		"over the limit":   padded(maxInferBody + 1),
		"float feature":    []byte(`{"workload":"svm-adult","samples":[[1.5]]}`),
		"exponent feature": []byte(`{"workload":"svm-adult","samples":[[1e2]]}`),
		"int overflow":     []byte(`{"workload":"svm-adult","samples":[[9223372036854775808]]}`),
		"null samples":     []byte(`{"workload":"svm-adult","samples":null}`),
		"non-array row":    []byte(`{"workload":"svm-adult","samples":[7]}`),
		"string row":       []byte(`{"workload":"svm-adult","samples":["1,2"]}`),
	} {
		resp, _ := postBody(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", name, resp.Status)
		}
	}

	for name, body := range map[string][]byte{
		"at the limit": padded(maxInferBody),
		"unknown nested field": []byte(`{"trace":{"id":[1,{"x":null}],"on":true},"workload":"svm-adult","samples":` +
			string(valid) + `,"extra":-1.5e3}`),
	} {
		resp, out := postBody(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %s, want 200", name, resp.Status)
			continue
		}
		if len(out.Predictions) != len(want) {
			t.Fatalf("%s: %d predictions for %d samples", name, len(out.Predictions), len(want))
		}
		for i := range want {
			if out.Predictions[i] != want[i] {
				t.Errorf("%s sample %d: served %d, offline %d", name, i, out.Predictions[i], want[i])
			}
		}
	}

	for name, req := range map[string]inferRequest{
		"unknown workload": {Workload: "frobnicate", Samples: [][]int{{1}}},
		"empty batch":      {Workload: "bnn-hidden16"},
		"wrong features":   {Workload: "bnn-hidden16", Samples: [][]int{{1, 0, 1}}},
	} {
		resp, _ := postInfer(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", name, resp.Status)
		}
	}

	var infos []fleet.WorkloadInfo
	if err := json.Unmarshal(scrape(t, ts, "/v1/workloads"), &infos); err != nil {
		t.Fatalf("/v1/workloads: %v", err)
	}
	if len(infos) != 2 || infos[0].Name != "bnn-hidden16" || infos[0].Capacity == 0 {
		t.Errorf("/v1/workloads = %+v", infos)
	}
}

// TestInferBackpressure429: with a starved single device and a depth-1
// admission queue, sustained posting must hit 429 with a Retry-After
// hint — the backpressure contract.
func TestInferBackpressure429(t *testing.T) {
	cfg := fleet.DefaultConfig()
	cfg.Devices = 1
	cfg.QueueDepth = 1
	cfg.BatchLinger = 0
	cfg.Mode = fleet.Harvested
	cfg.HarvestW = 1e-9 // a 660 s recharge per 0.66 µJ window
	cfg.Workloads = []string{"bnn-hidden16"}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	defer s.Close() // before ts.Close: unblocks the hung handlers it waits for

	hb, err := workload.HotBatchByName("bnn-hidden16")
	if err != nil {
		t.Fatal(err)
	}
	// Two 0.33 µJ passes drain the 0.66 µJ window, so the third request
	// stalls the device for a 660 s recharge.
	sample := hb.Samples(1)
	body, err := json.Marshal(inferRequest{Workload: "bnn-hidden16", Samples: sample})
	if err != nil {
		t.Fatal(err)
	}

	// Each short-deadline POST either times out while queued (filling
	// the pipeline: stalled device, occupied inbox, blocked batcher,
	// full queue) or bounces off the full queue with a 429.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(body))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := ts.Client().Do(req)
		if err != nil {
			cancel()
			continue // admitted and timed out: one more slot occupied
		}
		status := resp.StatusCode
		retry := resp.Header.Get("Retry-After")
		resp.Body.Close()
		cancel()
		if status != http.StatusTooManyRequests {
			continue
		}
		secs, err := strconv.Atoi(retry)
		if err != nil || secs < 1 {
			t.Fatalf("429 carried Retry-After %q, want an integer >= 1", retry)
		}
		return
	}
	t.Fatal("never saw a 429 from a starved, queue-full fleet")
}

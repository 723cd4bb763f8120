package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mouse/internal/fleet"
	"mouse/internal/metrics"
	"mouse/internal/workload"
)

// testFleetConfig is a small harvested inference fleet without a
// batching deadline. A 4-sample svm-adult batch costs four 0.50 µJ
// passes, three 0.66 µJ ModernSTT windows' worth, so it stalls its
// device for microseconds of recharge and records outages.
func testFleetConfig() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Devices = 2
	cfg.BatchLinger = 0
	return cfg
}

// newTestServer builds a server on the test fleet config and ties its
// shutdown to the test.
func newTestServer(t *testing.T) *server {
	t.Helper()
	s, err := newServer(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// scrape fetches path from the test server and returns the body.
func scrape(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestMetricsMatchFleetSection is the acceptance differential test:
// after serving harvested inference until the fleet records outages,
// every mouse_probe_* series served on /metrics must equal the
// corresponding field of the merged fleet Section exactly, and the
// whole document must pass the linter.
func TestMetricsMatchFleetSection(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	hb, err := workload.HotBatchByName("svm-adult")
	if err != nil {
		t.Fatal(err)
	}
	samples := hb.Samples(4)
	for i := 0; s.fleetSection().Outages == 0; i++ {
		if i == 20 {
			t.Fatal("20 harvested requests recorded no outage")
		}
		if resp, _ := postInfer(t, ts, inferRequest{Workload: hb.Name, Samples: samples}); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/infer: %s", resp.Status)
		}
	}

	body := scrape(t, ts, "/metrics")
	if err := metrics.Lint(strings.NewReader(string(body))); err != nil {
		t.Fatalf("/metrics fails lint: %v\n%s", err, body)
	}
	vals, err := metrics.Values(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}

	// Every request has returned, so the device shards are quiescent
	// and this snapshot matches the one the scrape took.
	sec := s.fleetSection()
	if sec.VoltageSamples == 0 {
		t.Fatalf("harvested serving recorded no voltage samples: %+v", sec)
	}
	want := map[string]float64{
		"mouse_probe_instructions_total":                        float64(sec.Instructions),
		"mouse_probe_replays_total":                             float64(sec.Replays),
		"mouse_probe_interrupts_total":                          float64(sec.Interrupts),
		"mouse_probe_outages_total":                             float64(sec.Outages),
		"mouse_probe_restores_total":                            float64(sec.Restores),
		"mouse_probe_faults_injected_total":                     float64(sec.FaultsInjected),
		"mouse_probe_voltage_samples_total":                     float64(sec.VoltageSamples),
		`mouse_probe_energy_joules_total{phase="compute"}`:      sec.Energy.Compute,
		`mouse_probe_energy_joules_total{phase="backup"}`:       sec.Energy.Backup,
		`mouse_probe_energy_joules_total{phase="lost"}`:         sec.Energy.Lost,
		`mouse_probe_energy_joules_total{phase="replay"}`:       sec.Energy.Replay,
		`mouse_probe_energy_joules_total{phase="restore"}`:      sec.Energy.Restore,
		"mouse_probe_busy_seconds_total":                        sec.BusySeconds,
		"mouse_probe_outage_seconds_total":                      sec.OutageSeconds,
		"mouse_probe_restore_seconds_total":                     sec.RestoreSeconds,
		"mouse_probe_outage_duration_seconds_count":             float64(sec.Outages),
		"mouse_probe_outage_duration_seconds_sum":               sec.OutageSeconds,
		`mouse_probe_outage_duration_seconds_bucket{le="+Inf"}`: float64(sec.Outages),
		`mouse_probe_voltage_volts{bound="max"}`:                sec.VoltageMax,
		`mouse_probe_voltage_volts{bound="min"}`:                sec.VoltageMin,
	}
	for key, v := range want {
		got, ok := vals[key]
		if !ok {
			t.Errorf("missing series %s", key)
			continue
		}
		if got != v {
			t.Errorf("%s = %g, want %g", key, got, v)
		}
	}
	// No probe series may escape the comparison: the finite histogram
	// buckets are cumulative counts bounded by the total, and nothing
	// else is served.
	for key, got := range vals {
		if !strings.HasPrefix(key, "mouse_probe_") {
			continue
		}
		if _, ok := want[key]; ok {
			continue
		}
		if strings.HasPrefix(key, "mouse_probe_outage_duration_seconds_bucket{") && got <= float64(sec.Outages) {
			continue
		}
		t.Errorf("unexpected probe series %s = %g", key, got)
	}
}

// TestHealthzRunsAndPprof: liveness and the pprof handlers are served;
// the experiment-run feed /runs is gone.
func TestHealthzRunsAndPprof(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	if got := string(scrape(t, ts, "/healthz")); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}

	resp, err := ts.Client().Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /runs: %s, want 404", resp.Status)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		scrape(t, ts, path) // fails the test on non-200
	}
}

// TestServeWritesAddrFileAndShutsDown drives serve end to end: bind an
// OS-assigned port, discover it through -addr-file, hit /healthz, then
// cancel the context and require a clean exit.
func TestServeWritesAddrFileAndShutsDown(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		errCh <- serve(ctx, "127.0.0.1:0", addrFile, testFleetConfig())
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("addr file never appeared")
		}
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %s", resp.Status)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down after cancel")
	}
}

// failingListener's Accept always returns a permanent error, the shape
// of a listener yanked out from under a running server.
type failingListener struct{}

func (failingListener) Accept() (net.Conn, error) { return nil, errors.New("listener exploded") }
func (failingListener) Close() error              { return nil }
func (failingListener) Addr() net.Addr            { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestServeHTTPReturnsOnListenerError: a real Serve error (not
// ErrServerClosed) must surface as serveHTTP's return, even though the
// context is never cancelled.
func TestServeHTTPReturnsOnListenerError(t *testing.T) {
	s := newTestServer(t)
	errCh := make(chan error, 1)
	go func() { errCh <- serveHTTP(context.Background(), failingListener{}, s) }()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "listener exploded") {
			t.Errorf("serveHTTP returned %v, want the listener error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serveHTTP hung after listener failure")
	}
}

// moused is the repo's serving process: it serves classification
// requests against a fleet of energy-harvesting MOUSE devices and
// exposes live telemetry about that fleet over HTTP.
//
// Endpoints:
//
//	/metrics        Prometheus text exposition (version 0.0.4): the
//	                merged view of every fleet device's probe shard
//	                under mouse_probe_*, plus the moused_infer_* request
//	                and moused_fleet_* queue/charge/batch families
//	/v1/infer       POST a JSON sample batch, get predictions; requests
//	                are coalesced into bit-sliced batches and placed on
//	                the most-charged device (429 + Retry-After under
//	                overload)
//	/v1/workloads   served workloads and their batch geometry
//	/healthz        liveness probe, always "ok" while serving
//	/debug/pprof/   standard Go profiling handlers
//
// Usage:
//
//	moused [-addr HOST:PORT] [-addr-file FILE]
//	       [-fleet-devices N] [-fleet-power continuous|harvested]
//	       [-fleet-queue N] [-fleet-linger DUR] [-fleet-harvest W]
//
// -addr defaults to 127.0.0.1:0 (an OS-assigned port); the bound
// address is printed on stdout and, with -addr-file, written to a file
// so scripts can discover it race-free. The -fleet-* flags size the
// inference fleet (see internal/fleet): device count, power mode,
// admission-queue depth, batching deadline, and per-device harvest
// rate. SIGINT/SIGTERM shut the server down.
//
// Experiment telemetry is not served here: run `mousebench -telemetry`
// or `mousetrace -stats`. See EXPERIMENTS.md for scrape and inference
// walkthroughs with curl.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mouse/internal/fleet"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address (port 0 = OS-assigned)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	defFleet := fleet.DefaultConfig()
	fleetDevices := flag.Int("fleet-devices", defFleet.Devices, "inference fleet device count")
	fleetPower := flag.String("fleet-power", string(defFleet.Mode), "fleet power mode: continuous or harvested")
	fleetQueue := flag.Int("fleet-queue", defFleet.QueueDepth, "per-workload admission queue depth")
	fleetLinger := flag.Duration("fleet-linger", defFleet.BatchLinger, "batching deadline after the first request of a batch")
	fleetHarvest := flag.Float64("fleet-harvest", defFleet.HarvestW, "per-device harvest rate in watts (harvested mode)")
	flag.Parse()

	fcfg := defFleet
	fcfg.Devices = *fleetDevices
	fcfg.Mode = fleet.PowerMode(*fleetPower)
	fcfg.QueueDepth = *fleetQueue
	fcfg.BatchLinger = *fleetLinger
	fcfg.HarvestW = *fleetHarvest

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, *addr, *addrFile, fcfg); err != nil {
		fmt.Fprintln(os.Stderr, "moused:", err)
		os.Exit(1)
	}
}

// serve binds the listener, builds the server (including its inference
// fleet), and hands off to serveHTTP.
func serve(ctx context.Context, addr, addrFile string, fcfg fleet.Config) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	fmt.Printf("moused: listening on http://%s\n", bound)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	s, err := newServer(fcfg)
	if err != nil {
		ln.Close()
		return err
	}
	defer s.Close()
	return serveHTTP(ctx, ln, s)
}

// serveHTTP serves ln until the listener fails, returning its error,
// or until ctx is cancelled, then shuts down gracefully: in-flight
// requests get up to five seconds to finish.
func serveHTTP(ctx context.Context, ln net.Listener, s *server) error {
	httpSrv := &http.Server{Handler: s.handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutdownCtx)
}

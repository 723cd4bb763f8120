// mouseload drives a running moused's POST /v1/infer endpoint with the
// open-loop load generator from internal/fleet and reports request
// latency percentiles — the client half of the fleet serving
// experiment, pointed at a real server instead of an in-process fleet.
//
// Usage:
//
//	mouseload -addr HOST:PORT [-workload NAME] [-n N] [-batch N]
//	          [-interval DUR] [-verify] [-json]
//
// -addr names the moused server (the address it printed on stdout or
// wrote to its -addr-file). -workload picks the served hot workload
// (default svm-adult), -n the request count, -batch the samples per
// request, and -interval the open-loop arrival spacing: requests launch
// on schedule no matter how slowly earlier ones complete, and each
// latency runs from the request's scheduled arrival, so harvested
// stalls show up as latency instead of silently thinning the load.
//
// -verify recomputes every expected label with the offline batch
// classifier and counts disagreements: a nonzero mismatch count means
// the server's predictions drifted from the simulator's, and mouseload
// exits nonzero. -json replaces the summary with the raw LoadReport.
//
// HTTP 429 responses count as Rejected (backpressure working as
// designed), not as errors; any other non-200 counts as an error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"mouse/internal/fleet"
	"mouse/internal/workload"
)

func main() {
	addr := flag.String("addr", "", "moused address (HOST:PORT), required")
	wlName := flag.String("workload", "svm-adult", "hot workload to request")
	requests := flag.Int("n", 32, "requests to send")
	batch := flag.Int("batch", 8, "samples per request")
	interval := flag.Duration("interval", 0, "open-loop arrival spacing")
	verify := flag.Bool("verify", false, "check predictions against the offline batch classifier")
	asJSON := flag.Bool("json", false, "emit the raw load report as JSON")
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "mouseload: -addr is required")
		os.Exit(2)
	}
	rep, err := run(*addr, *wlName, *requests, *batch, *interval, *verify)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mouseload:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "mouseload:", err)
			os.Exit(1)
		}
	} else {
		printReport(os.Stdout, *wlName, rep)
	}
	if rep.Mismatches > 0 || rep.Errors > 0 {
		os.Exit(1)
	}
}

// run assembles the sample pool (and, with verify, the golden labels),
// then drives the server with the open-loop generator.
func run(addr, wlName string, requests, batch int, interval time.Duration, verify bool) (fleet.LoadReport, error) {
	hb, err := workload.HotBatchByName(wlName)
	if err != nil {
		return fleet.LoadReport{}, err
	}
	samples := hb.Samples(requests * batch)
	var expected []int
	if verify {
		offline, err := hb.NewBatched()
		if err != nil {
			return fleet.LoadReport{}, err
		}
		for i := 0; i < requests; i++ {
			preds, err := offline(samples[i*batch : (i+1)*batch])
			if err != nil {
				return fleet.LoadReport{}, err
			}
			expected = append(expected, preds...)
		}
	}
	send := newHTTPSender(&http.Client{Timeout: 60 * time.Second}, "http://"+addr, wlName)
	return fleet.RunLoad(fleet.LoadConfig{
		Requests:  requests,
		BatchSize: batch,
		Interval:  interval,
		Expected:  expected,
	}, samples, send)
}

// inferRequest / inferResponse mirror moused's /v1/infer wire format.
type inferRequest struct {
	Workload string  `json:"workload"`
	Samples  [][]int `json:"samples"`
}

type inferResponse struct {
	Workload    string `json:"workload"`
	Predictions []int  `json:"predictions"`
}

// newHTTPSender builds the SendFunc for one workload against one
// server. A 429 maps to fleet.OverloadedError (with the server's
// Retry-After hint) so RunLoad counts it as backpressure.
func newHTTPSender(client *http.Client, base, wlName string) fleet.SendFunc {
	url := base + "/v1/infer"
	return func(chunk [][]int) ([]int, error) {
		body, err := json.Marshal(inferRequest{Workload: wlName, Samples: chunk})
		if err != nil {
			return nil, err
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			var out inferResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				return nil, fmt.Errorf("decoding response: %w", err)
			}
			return out.Predictions, nil
		case resp.StatusCode == http.StatusTooManyRequests:
			retry := time.Second
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				retry = time.Duration(secs) * time.Second
			}
			return nil, &fleet.OverloadedError{Workload: wlName, RetryAfter: retry}
		default:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
		}
	}
}

// printReport renders the human summary.
func printReport(w io.Writer, wlName string, rep fleet.LoadReport) {
	fmt.Fprintf(w, "mouseload: %s — %d requests: %d ok, %d rejected, %d errors, %d mismatches\n",
		wlName, rep.Requests, rep.OK, rep.Rejected, rep.Errors, rep.Mismatches)
	if rep.OK > 0 {
		fmt.Fprintf(w, "latency: p50 %v  p99 %v  mean %v\n", rep.P50, rep.P99, rep.Mean)
	}
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// tracer records spans from the benchmark's own code around its calls
// into each layer: name, start, end, parent span and request id. Spans
// stay in memory and are written once, at exit, as Chrome trace_event
// JSON (the format mousetrace writes). A nil tracer records nothing, so
// the untraced run pays one nil check per span.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

type span struct {
	name       string
	id, parent int // ids start at 1; parent 0 is the root
	req        int // request id, or -1 outside a request
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, req: req, start: now, end: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// durationsUnder returns the durations in milliseconds of the closed
// spans named name that are children of span parent.
func (t *tracer) durationsUnder(name string, parent int) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 && s.parent == parent {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// writeChrome writes every closed span as a complete ("X") event.
// Request spans overlap in time, so each request gets its own thread
// track; spans outside a request share track 1.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	sep := "\n"
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		tid := 1
		if s.req >= 0 {
			tid = 2 + s.req
		}
		fmt.Fprintf(bw, `%s{"ph":"X","pid":1,"tid":%d,"name":%q,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"request":%d}}`,
			sep, tid, s.name, us(s.start), us(s.end-s.start), s.id, s.parent, s.req)
		sep = ",\n"
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

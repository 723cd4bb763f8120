package probe

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

func TestEnabled(t *testing.T) {
	if Enabled(nil) {
		t.Errorf("nil observer enabled")
	}
	if Enabled(Nop{}) {
		t.Errorf("Nop observer enabled")
	}
	if !Enabled(&Stats{}) {
		t.Errorf("Stats observer not enabled")
	}
	if !Enabled(Multi{Nop{}}) {
		t.Errorf("Multi observer not enabled")
	}
}

func TestFirst(t *testing.T) {
	if _, ok := First(nil).(Nop); !ok {
		t.Errorf("First(nil) is not Nop")
	}
	if _, ok := First([]Observer{nil}).(Nop); !ok {
		t.Errorf("First([nil]) is not Nop")
	}
	s := &Stats{}
	if got := First([]Observer{nil, s}); got != Observer(s) {
		t.Errorf("First skipped past the first non-nil observer")
	}
}

func TestStatsCounters(t *testing.T) {
	s := &Stats{}
	s.InstrRetired(Instr{T: 1, Dur: 0.5, Kind: isa.KindLogic, Gate: mtj.NAND2, Energy: 3, Backup: 1})
	s.InstrRetired(Instr{T: 2, Dur: 0.25, Kind: isa.KindRead, Energy: 2, Backup: 0.5, Replay: true})
	s.PulseInterrupted(Interrupt{T: 1.5, Frac: 0.5, Kind: isa.KindLogic, Lost: 0.125})
	s.OutageBegin(1.5)
	s.OutageEnd(2.5, 1.0)
	s.Restored(Restore{T: 2.6, Dur: 0.1, Cols: 8, Energy: 0.0625})
	s.VoltageSample(0, 0.33)
	s.VoltageSample(1, 0.32)
	s.VoltageSample(2, 0.34)
	s.TileWrite(0, 8)
	s.TileWrite(0, 4)
	s.TileWrite(3, 2)
	s.TileWrite(-1, 99) // trace-layer sentinel: no tile addressing
	s.TileWrite(maxTrackedTiles+10, 1)

	sec := s.Section()
	if sec.Instructions != 2 || sec.Replays != 1 || sec.Interrupts != 1 ||
		sec.Outages != 1 || sec.Restores != 1 {
		t.Fatalf("counters: %+v", sec)
	}
	if sec.ByKind["logic"] != 1 || sec.ByKind["read"] != 1 {
		t.Errorf("by-kind map: %v", sec.ByKind)
	}
	if sec.Energy.Compute != 5 || sec.Energy.Backup != 1.5 ||
		sec.Energy.Restore != 0.0625 || sec.Energy.Lost != 0.125 ||
		sec.Energy.Replay != 2.5 {
		t.Errorf("energy: %+v", sec.Energy)
	}
	if sec.BusySeconds != 0.75 || sec.OutageSeconds != 1.0 || sec.RestoreSeconds != 0.1 {
		t.Errorf("latency: busy %g outage %g restore %g",
			sec.BusySeconds, sec.OutageSeconds, sec.RestoreSeconds)
	}
	if sec.VoltageSamples != 3 || sec.VoltageMin != 0.32 || sec.VoltageMax != 0.34 {
		t.Errorf("voltage: %d samples, [%g, %g]",
			sec.VoltageSamples, sec.VoltageMin, sec.VoltageMax)
	}
	// Negative tiles dropped, overflow folded into the last slot.
	want := []TileWrites{
		{Tile: 0, Writes: 2, Bits: 12},
		{Tile: 3, Writes: 1, Bits: 2},
		{Tile: maxTrackedTiles - 1, Writes: 1, Bits: 1},
	}
	if len(sec.TileWrites) != len(want) {
		t.Fatalf("tile writes: %+v", sec.TileWrites)
	}
	for i, w := range want {
		if sec.TileWrites[i] != w {
			t.Errorf("tile write %d: got %+v, want %+v", i, sec.TileWrites[i], w)
		}
	}
}

// TestStatsInstrRetiredN: one bulk event leaves the Section bit for bit
// where the single events it stands for would, on top of sums that are
// already non-zero, with the replays among them.
func TestStatsInstrRetiredN(t *testing.T) {
	seed := func(s *Stats) {
		s.InstrRetired(Instr{Kind: isa.KindAct, Energy: 0.3, Backup: 1e-3, Dur: 3.3e-8})
		s.InstrRetired(Instr{Kind: isa.KindLogic, Energy: 7e-9, Dur: 3.3e-8, Replay: true})
	}
	const n, replays = 100003, 7
	var single, bulk Stats
	seed(&single)
	seed(&bulk)
	ev := Instr{Kind: isa.KindLogic, Energy: 1.1e-11, Backup: 3.9e-13, Dur: 1 / 30.3e6}
	for i := 0; i < n; i++ {
		ev.Replay = i < replays
		single.InstrRetired(ev)
	}
	bulk.InstrRetiredN(ev.Kind, n, replays, ev.Energy, ev.Backup, ev.Dur)
	if a, b := bulk.Section(), single.Section(); !reflect.DeepEqual(a, b) {
		t.Errorf("bulk event diverges from %d single events\nbulk:   %+v\nsingle: %+v", n, a, b)
	}
}

func TestStatsOutageHistogram(t *testing.T) {
	s := &Stats{}
	for _, off := range []float64{1e-9, 0.5e-6, 2e-6, 5e-3, 5e-3, 7.0, 1e6} {
		s.OutageBegin(0)
		s.OutageEnd(off, off)
	}
	sec := s.Section()
	var total uint64
	for i, hb := range sec.OutageHist {
		total += hb.Count
		if hb.Count == 0 {
			t.Errorf("bucket %d present but empty", i)
		}
		if i == 0 && hb.LoSeconds != 0 {
			t.Errorf("first bucket floor %g, want 0", hb.LoSeconds)
		}
	}
	if total != sec.Outages {
		t.Errorf("histogram total %d != outages %d", total, sec.Outages)
	}
	// The sub-µs outages share the first bucket; the repeated 5 ms
	// outages share one bucket with count 2.
	if sec.OutageHist[0].Count != 2 {
		t.Errorf("sub-µs bucket count %d, want 2", sec.OutageHist[0].Count)
	}
	found := false
	for _, hb := range sec.OutageHist {
		if hb.Count == 2 && hb.LoSeconds == 1e-3 {
			found = true
		}
	}
	if !found {
		t.Errorf("5 ms outages not bucketed at lo=1e-3: %+v", sec.OutageHist)
	}
	// The absurd 1e6 s outage lands in the open-ended last bucket.
	last := sec.OutageHist[len(sec.OutageHist)-1]
	if last.HiSeconds != 0 {
		t.Errorf("last bucket has a ceiling %g, want open-ended", last.HiSeconds)
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		off  float64
		want int
	}{
		{0, 0}, {1e-9, 0}, {0.99e-6, 0}, {1e-6, 1}, {9e-6, 1},
		{1e-5, 2}, {1e-3, 4}, {1, 7}, {99, 8}, {1e3, 9}, {1e9, 9},
	}
	for _, c := range cases {
		if got := bucketFor(c.off); got != c.want {
			t.Errorf("bucketFor(%g) = %d, want %d", c.off, got, c.want)
		}
	}
}

// TestStatsConcurrent hammers one Stats from several goroutines under
// the race detector; the totals must come out exact (counters are
// atomic adds, not samples).
func TestStatsConcurrent(t *testing.T) {
	s := &Stats{}
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.InstrRetired(Instr{Dur: 1, Kind: isa.KindLogic, Energy: 1})
				s.VoltageSample(float64(i), 0.3+float64(w)*0.001)
				s.TileWrite(w, 1)
			}
		}(w)
	}
	wg.Wait()
	sec := s.Section()
	if sec.Instructions != workers*perWorker {
		t.Errorf("instructions %d, want %d", sec.Instructions, workers*perWorker)
	}
	if math.Abs(sec.Energy.Compute-workers*perWorker) > 1e-6 {
		t.Errorf("compute energy %g, want %d", sec.Energy.Compute, workers*perWorker)
	}
	var writes uint64
	for _, tw := range sec.TileWrites {
		writes += tw.Writes
	}
	if writes != workers*perWorker {
		t.Errorf("tile writes %d, want %d", writes, workers*perWorker)
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := &Stats{}, &Stats{}
	m := Multi{a, b}
	m.InstrRetired(Instr{Dur: 1, Kind: isa.KindPreset, Energy: 2})
	m.PulseInterrupted(Interrupt{Lost: 1})
	m.OutageBegin(0)
	m.OutageEnd(1, 1)
	m.Restored(Restore{Dur: 0.5, Energy: 0.25})
	m.VoltageSample(0, 0.3)
	m.TileWrite(0, 4)
	for i, s := range []*Stats{a, b} {
		sec := s.Section()
		if sec.Instructions != 1 || sec.Interrupts != 1 || sec.Outages != 1 ||
			sec.Restores != 1 || sec.VoltageSamples != 1 || len(sec.TileWrites) != 1 {
			t.Errorf("observer %d missed events: %+v", i, sec)
		}
	}
}

func TestSectionJSONRoundTrip(t *testing.T) {
	s := &Stats{}
	s.InstrRetired(Instr{T: 1, Dur: 1, Kind: isa.KindLogic, Gate: mtj.MAJ3, Energy: 1e-9, Backup: 1e-10})
	s.OutageBegin(1)
	s.OutageEnd(2, 1)
	data, err := json.Marshal(s.Section())
	if err != nil {
		t.Fatal(err)
	}
	var back Section
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Instructions != 1 || back.Outages != 1 || back.Energy.Compute != 1e-9 {
		t.Errorf("round trip lost data: %+v", back)
	}
	for _, key := range []string{"instructions", "energy", "compute_j", "outage_hist"} {
		if !bytes.Contains(data, []byte(`"`+key+`"`)) {
			t.Errorf("serialized section missing %q: %s", key, data)
		}
	}
}

func TestWriteSummary(t *testing.T) {
	s := &Stats{}
	s.InstrRetired(Instr{T: 1, Dur: 1, Kind: isa.KindLogic, Gate: mtj.NAND2, Energy: 1e-9})
	s.VoltageSample(0, 0.33)
	s.TileWrite(0, 8)
	var buf bytes.Buffer
	if err := s.Section().WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"instructions", "outages", "energy", "capacitor", "tile writes"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// traceDoc is the envelope of a Chrome trace_event JSON document.
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Name string         `json:"name"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

func TestTraceWriterProducesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	// Initial charge, three coalescible NAND cycles, an interrupt, an
	// outage, a restore, a replayed cycle, and a voltage sample.
	tw.OutageBegin(0)
	tw.OutageEnd(1, 1)
	tw.VoltageSample(1, 0.34)
	tw.InstrRetired(Instr{T: 1.1, Dur: 0.1, Kind: isa.KindLogic, Gate: mtj.NAND2, Energy: 1e-9})
	tw.InstrRetired(Instr{T: 1.2, Dur: 0.1, Kind: isa.KindLogic, Gate: mtj.NAND2, Energy: 1e-9})
	tw.InstrRetired(Instr{T: 1.3, Dur: 0.1, Kind: isa.KindLogic, Gate: mtj.NAND2, Energy: 1e-9})
	tw.PulseInterrupted(Interrupt{T: 1.35, Frac: 0.5, Kind: isa.KindLogic, Lost: 5e-10})
	tw.OutageBegin(1.35)
	tw.OutageEnd(2.35, 1)
	tw.Restored(Restore{T: 2.4, Dur: 0.05, Cols: 8, Energy: 1e-10})
	tw.InstrRetired(Instr{T: 2.5, Dur: 0.1, Kind: isa.KindLogic, Gate: mtj.NAND2, Energy: 1e-9, Replay: true})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	byName := map[string][]traceEvent{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	// The three adjacent NAND cycles coalesce into one span; the replay
	// after the outage is a separate span flushed by the outage events.
	nands := byName[mtj.NAND2.String()]
	if len(nands) != 2 {
		t.Fatalf("NAND spans: %d, want 2 (coalesced + replay)", len(nands))
	}
	if c, ok := nands[0].Args["count"].(float64); !ok || c != 3 {
		t.Errorf("coalesced count %v, want 3", nands[0].Args["count"])
	}
	if r, ok := nands[1].Args["replays"].(float64); !ok || r != 1 {
		t.Errorf("replay span args %v, want replays=1", nands[1].Args)
	}
	// The pre-instruction powered-off span is "charge"; the later one is
	// "outage", on the power thread.
	if len(byName["charge"]) != 1 || len(byName["outage"]) != 1 {
		t.Fatalf("power spans: charge %d, outage %d", len(byName["charge"]), len(byName["outage"]))
	}
	if byName["outage"][0].TID != powerTID {
		t.Errorf("outage on tid %d, want %d", byName["outage"][0].TID, powerTID)
	}
	if len(byName["restore"]) != 1 || len(byName["pulse interrupted"]) != 1 || len(byName["Vcap"]) != 1 {
		t.Errorf("missing spans: %v", byName)
	}
	for _, ev := range doc.TraceEvents {
		if ev.PID != tracePID {
			t.Errorf("event %q on pid %d", ev.Name, ev.PID)
		}
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Errorf("span %q has negative duration %g", ev.Name, ev.Dur)
		}
	}
}

func TestTraceWriterSplitsNonAdjacentSpans(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.InstrRetired(Instr{T: 1.0, Dur: 0.1, Kind: isa.KindRead, Energy: 1e-9})
	// Same label but a time gap: must not coalesce.
	tw.InstrRetired(Instr{T: 3.0, Dur: 0.1, Kind: isa.KindRead, Energy: 1e-9})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == isa.KindRead.String() {
			reads++
		}
	}
	if reads != 2 {
		t.Errorf("read spans %d, want 2 (gap must split the span)", reads)
	}
}

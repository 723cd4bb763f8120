package probe

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"mouse/internal/isa"
)

// events feeds s a deterministic stream with exactly-representable
// energies and durations (powers of two), so accumulation order cannot
// perturb the float totals and merged results compare exactly equal.
func events(s *Stats, seed int) {
	for i := 0; i < 50; i++ {
		s.InstrRetired(Instr{
			Dur: 0.25, Kind: isa.Kind(i % 3), Energy: 0.5, Backup: 0.125,
			Replay: i%10 == seed%10,
		})
		s.TileWrite(seed%7, 8)
	}
	s.PulseInterrupted(Interrupt{Lost: 0.0625})
	s.OutageBegin(1)
	s.OutageEnd(2, math.Pow(10, float64(seed%8-6))) // hits a different hist bucket per seed
	s.Restored(Restore{Dur: 0.5, Energy: 0.25, Cols: 4})
	s.VoltageSample(0, 0.25+float64(seed%4)*0.125)
	s.FaultInjected(Fault{})
}

// TestMergeEqualsSharedAccumulation proves the aggregation contract:
// feeding N shards and merging them into a fresh Stats yields the same
// Section as feeding one shared Stats the same events.
func TestMergeEqualsSharedAccumulation(t *testing.T) {
	shared := &Stats{}
	shards := make([]*Stats, 4)
	for i := range shards {
		shards[i] = &Stats{}
		events(shards[i], i)
		events(shared, i)
	}
	merged := &Stats{}
	for _, sh := range shards {
		merged.Merge(sh)
	}
	got, want := merged.Section(), shared.Section()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged section differs from shared accumulation:\n got %+v\nwant %+v", got, want)
	}
}

func TestMergeSelfAndNilAreNoOps(t *testing.T) {
	s := &Stats{}
	events(s, 0)
	before := s.Section()
	s.Merge(nil)
	s.Merge(s)
	if !reflect.DeepEqual(s.Section(), before) {
		t.Errorf("Merge(nil)/Merge(self) changed the stats")
	}
}

// TestMergeSeedsVoltageMinMax checks that merging voltage data into a
// Stats that never saw a VoltageSample seeds min/max instead of pinning
// the minimum at the zero value.
func TestMergeSeedsVoltageMinMax(t *testing.T) {
	src := &Stats{}
	src.VoltageSample(0, 0.8)
	src.VoltageSample(1, 0.3)
	dst := &Stats{}
	dst.Merge(src)
	sec := dst.Section()
	if sec.VoltageMin != 0.3 || sec.VoltageMax != 0.8 {
		t.Errorf("voltage range [%g, %g], want [0.3, 0.8]", sec.VoltageMin, sec.VoltageMax)
	}
	// A second merge must narrow/widen via Min/Max, not re-seed.
	src2 := &Stats{}
	src2.VoltageSample(0, 0.1)
	dst.Merge(src2)
	if sec := dst.Section(); sec.VoltageMin != 0.1 || sec.VoltageMax != 0.8 {
		t.Errorf("after second merge range [%g, %g], want [0.1, 0.8]", sec.VoltageMin, sec.VoltageMax)
	}
}

// TestMergeConcurrentWithWriters folds live shards into an aggregate
// while their emitters are still running; under -race this pins the
// lock-freedom of Merge, and the final totals must still be exact.
func TestMergeConcurrentWithWriters(t *testing.T) {
	const workers = 4
	const perWorker = 500
	shards := make([]*Stats, workers)
	for i := range shards {
		shards[i] = &Stats{}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader: merge mid-flight snapshots
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				view := &Stats{}
				for _, sh := range shards {
					view.Merge(sh)
				}
				_ = view.Section()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				shards[w].InstrRetired(Instr{Dur: 1, Kind: isa.KindLogic, Energy: 1})
				shards[w].OutageBegin(0)
				shards[w].OutageEnd(1, 1e-3)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	final := &Stats{}
	for _, sh := range shards {
		final.Merge(sh)
	}
	sec := final.Section()
	if sec.Instructions != workers*perWorker {
		t.Errorf("instructions %d, want %d", sec.Instructions, workers*perWorker)
	}
	if sec.Outages != workers*perWorker {
		t.Errorf("outages %d, want %d", sec.Outages, workers*perWorker)
	}
}

// TestAtomicFloatMinMaxConcurrent hammers one AtomicFloat pair with
// Min/Max from many goroutines; the CAS loops must converge on the
// exact extremes regardless of interleaving.
func TestAtomicFloatMinMaxConcurrent(t *testing.T) {
	var lo, hi AtomicFloat
	lo.bits.Store(math.Float64bits(math.Inf(1)))
	hi.bits.Store(math.Float64bits(math.Inf(-1)))
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := float64((w*perWorker+i)%1009) / 1009
				lo.Min(v)
				hi.Max(v)
			}
		}(w)
	}
	wg.Wait()
	if got := lo.Load(); got != 0 {
		t.Errorf("min %g, want 0", got)
	}
	want := float64(1008) / 1009
	if got := hi.Load(); got != want {
		t.Errorf("max %g, want %g", got, want)
	}
}

// TestOutageHistogramConcurrent drives the log10 histogram from
// concurrent writers, each goroutine targeting every bucket, and
// requires exact per-bucket counts.
func TestOutageHistogramConcurrent(t *testing.T) {
	s := &Stats{}
	const workers = 8
	const perBucket = 200
	durations := []float64{
		1e-7, // below the floor: bucket 0
		2e-6, 3e-5, 4e-4, 5e-3, 6e-2, 0.7, 8, 90,
		1e3, // at or above the last edge: bucket 9
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perBucket; i++ {
				for _, d := range durations {
					s.OutageBegin(0)
					s.OutageEnd(1, d)
				}
			}
		}()
	}
	wg.Wait()
	sec := s.Section()
	if len(sec.OutageHist) != len(durations) {
		t.Fatalf("%d non-empty buckets, want %d: %+v", len(sec.OutageHist), len(durations), sec.OutageHist)
	}
	for i, hb := range sec.OutageHist {
		if hb.Count != workers*perBucket {
			t.Errorf("bucket %d count %d, want %d", i, hb.Count, workers*perBucket)
		}
	}
}

func TestOutageHistEdges(t *testing.T) {
	edges := OutageHistEdges()
	if len(edges) != histBuckets-1 {
		t.Fatalf("%d edges, want %d", len(edges), histBuckets-1)
	}
	if edges[0] != histFloor || edges[len(edges)-1] != 100 {
		t.Errorf("edge range [%g, %g], want [%g, 100]", edges[0], edges[len(edges)-1], histFloor)
	}
	// The edges must compare exactly equal to Section's bucket bounds.
	s := &Stats{}
	for _, e := range edges {
		s.OutageBegin(0)
		s.OutageEnd(1, e)
	}
	for i, hb := range s.Section().OutageHist {
		if hb.LoSeconds != edges[i] {
			t.Errorf("bucket %d lo %g != edge %g", i, hb.LoSeconds, edges[i])
		}
	}
}

// TestWriteSummaryGolden pins the exact summary bytes for a fully
// populated section; the substring checks elsewhere would miss
// formatting drift that breaks downstream scrapers of mousetrace and
// mousebench -telemetry output.
func TestWriteSummaryGolden(t *testing.T) {
	s := &Stats{}
	s.InstrRetired(Instr{Dur: 0.5, Kind: isa.KindLogic, Energy: 0.25, Backup: 0.125})
	s.InstrRetired(Instr{Dur: 0.5, Kind: isa.KindLogic, Energy: 0.25, Replay: true})
	s.PulseInterrupted(Interrupt{Lost: 0.0625})
	s.OutageBegin(1)
	s.OutageEnd(2, 1)
	s.Restored(Restore{Dur: 0.5, Energy: 0.125, Cols: 2})
	s.VoltageSample(0, 0.25)
	s.VoltageSample(1, 0.75)
	s.TileWrite(0, 8)
	s.TileWrite(3, 4)
	var buf bytes.Buffer
	if err := s.Section().WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	want := "instructions  2 (1 replayed)\n" +
		"outages       1 (1 s powered off)\n" +
		"restores      1 (0.5 s, 0.125 J)\n" +
		"interrupts    1 (0.0625 J lost)\n" +
		"energy        compute 0.5 J, backup 0.125 J, restore 0.125 J, dead 0.3125 J\n" +
		"capacitor     0.25 V .. 0.75 V (2 samples)\n" +
		"tile writes   2 across 2 tiles\n"
	if got := buf.String(); got != want {
		t.Errorf("summary drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

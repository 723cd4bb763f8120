package probe

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"mouse/internal/isa"
)

// maxKinds bounds the per-kind counter arrays; the ISA has five kinds
// and the array is sized with headroom so a new opcode cannot index out
// of range.
const maxKinds = 8

// maxTrackedTiles bounds the per-tile write table. MOUSE machines in
// this repo top out at a few hundred tiles; writes to tiles beyond the
// table are folded into the last slot so the counters never allocate.
const maxTrackedTiles = 1024

// histBuckets is the number of log10 outage-duration buckets, spanning
// <1µs up to >=100s.
const histBuckets = 10

// histFloor is the lower edge of the first bucket in seconds (1µs).
const histFloor = 1e-6

// AtomicFloat is a float64 accumulated with a compare-and-swap loop so
// Stats (and the metrics registry's instruments) stay lock-free under
// concurrent updates. The zero value is 0.
type AtomicFloat struct{ bits atomic.Uint64 }

// Add adds v.
func (f *AtomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the current value.
func (f *AtomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Store replaces the value.
func (f *AtomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// Max raises the stored value to v if v is larger.
func (f *AtomicFloat) Max(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Min lowers the stored value to v if v is smaller.
func (f *AtomicFloat) Min(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Stats is a lock-free aggregating observer: counters and histograms
// only, safe to share across the sweep engine's concurrent jobs. Zero
// value is ready to use.
type Stats struct {
	instructions atomic.Uint64
	replays      atomic.Uint64
	interrupts   atomic.Uint64
	outages      atomic.Uint64
	restores     atomic.Uint64
	voltSamples  atomic.Uint64
	faults       atomic.Uint64

	byKind [maxKinds]atomic.Uint64

	computeEnergy AtomicFloat
	backupEnergy  AtomicFloat
	restoreEnergy AtomicFloat
	lostEnergy    AtomicFloat
	replayEnergy  AtomicFloat
	outageSecs    AtomicFloat
	busySecs      AtomicFloat
	restoreSecs   AtomicFloat

	outageHist [histBuckets]atomic.Uint64

	voltMin AtomicFloat
	voltMax AtomicFloat

	tileWrites [maxTrackedTiles]atomic.Uint64
	tileBits   [maxTrackedTiles]atomic.Uint64

	voltInit atomic.Bool
}

var _ Observer = (*Stats)(nil)

// InstrRetired implements Observer.
func (s *Stats) InstrRetired(ev Instr) {
	s.instructions.Add(1)
	k := int(ev.Kind)
	if k < 0 || k >= maxKinds {
		k = maxKinds - 1
	}
	s.byKind[k].Add(1)
	s.computeEnergy.Add(ev.Energy)
	s.backupEnergy.Add(ev.Backup)
	s.busySecs.Add(ev.Dur)
	if ev.Replay {
		s.replays.Add(1)
		s.replayEnergy.Add(ev.Energy + ev.Backup)
	}
}

// PulseInterrupted implements Observer.
func (s *Stats) PulseInterrupted(ev Interrupt) {
	s.interrupts.Add(1)
	s.lostEnergy.Add(ev.Lost)
}

// OutageBegin implements Observer.
func (s *Stats) OutageBegin(float64) { s.outages.Add(1) }

// OutageEnd implements Observer.
func (s *Stats) OutageEnd(_, off float64) {
	s.outageSecs.Add(off)
	s.outageHist[bucketFor(off)].Add(1)
}

// Restored implements Observer.
func (s *Stats) Restored(ev Restore) {
	s.restores.Add(1)
	s.restoreEnergy.Add(ev.Energy)
	s.restoreSecs.Add(ev.Dur)
}

// VoltageSample implements Observer.
func (s *Stats) VoltageSample(_, volts float64) {
	s.voltSamples.Add(1)
	if s.voltInit.CompareAndSwap(false, true) {
		// First sample seeds min/max (the zero value would pin the
		// minimum at 0 V otherwise). A sample racing the seed can read
		// the unseeded zero — stats from concurrent sweeps are
		// approximate by contract, single-run traces are sequential.
		s.voltMin.bits.Store(math.Float64bits(volts))
		s.voltMax.bits.Store(math.Float64bits(volts))
		return
	}
	s.voltMin.Min(volts)
	s.voltMax.Max(volts)
}

// FaultInjected implements FaultObserver.
func (s *Stats) FaultInjected(Fault) { s.faults.Add(1) }

// TileWrite implements Observer.
func (s *Stats) TileWrite(tile, bits int) {
	if tile < 0 {
		return
	}
	if tile >= maxTrackedTiles {
		tile = maxTrackedTiles - 1
	}
	s.tileWrites[tile].Add(1)
	s.tileBits[tile].Add(uint64(bits))
}

func bucketFor(off float64) int {
	if off < histFloor {
		return 0
	}
	b := 1 + int(math.Floor(math.Log10(off/histFloor)))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// HistBucket is one non-empty log10 bucket of the outage-duration
// histogram. Hi is +Inf-free: the last bucket reports Hi as 0 meaning
// "and above".
type HistBucket struct {
	LoSeconds float64 `json:"lo_seconds"`
	HiSeconds float64 `json:"hi_seconds,omitempty"`
	Count     uint64  `json:"count"`
}

// PhaseEnergy is the run's energy split by protocol phase, in joules.
type PhaseEnergy struct {
	Compute float64 `json:"compute_j"`
	Backup  float64 `json:"backup_j"`
	Restore float64 `json:"restore_j"`
	Lost    float64 `json:"lost_j"`
	Replay  float64 `json:"replay_j"`
}

// TileWrites is the wear counter for one tile.
type TileWrites struct {
	Tile   int    `json:"tile"`
	Writes uint64 `json:"writes"`
	Bits   uint64 `json:"bits"`
}

// Section is the JSON-serializable snapshot of a Stats observer; it is
// embedded into mouse-bench/v1 reports as the optional "telemetry"
// section.
type Section struct {
	Instructions   uint64            `json:"instructions"`
	Replays        uint64            `json:"replays"`
	Interrupts     uint64            `json:"interrupts"`
	Outages        uint64            `json:"outages"`
	Restores       uint64            `json:"restores"`
	FaultsInjected uint64            `json:"faults_injected,omitempty"`
	ByKind         map[string]uint64 `json:"instructions_by_kind,omitempty"`
	Energy         PhaseEnergy       `json:"energy"`
	BusySeconds    float64           `json:"busy_seconds"`
	OutageSeconds  float64           `json:"outage_seconds"`
	RestoreSeconds float64           `json:"restore_seconds"`
	OutageHist     []HistBucket      `json:"outage_hist,omitempty"`
	VoltageSamples uint64            `json:"voltage_samples,omitempty"`
	VoltageMin     float64           `json:"voltage_min,omitempty"`
	VoltageMax     float64           `json:"voltage_max,omitempty"`
	TileWrites     []TileWrites      `json:"tile_writes,omitempty"`
}

// Section snapshots the counters. Concurrent emitters may still be
// running; the snapshot is then merely approximate, which is fine for
// reporting.
func (s *Stats) Section() *Section {
	sec := &Section{
		Instructions:   s.instructions.Load(),
		Replays:        s.replays.Load(),
		Interrupts:     s.interrupts.Load(),
		Outages:        s.outages.Load(),
		Restores:       s.restores.Load(),
		FaultsInjected: s.faults.Load(),
		Energy: PhaseEnergy{
			Compute: s.computeEnergy.Load(),
			Backup:  s.backupEnergy.Load(),
			Restore: s.restoreEnergy.Load(),
			Lost:    s.lostEnergy.Load(),
			Replay:  s.replayEnergy.Load(),
		},
		BusySeconds:    s.busySecs.Load(),
		OutageSeconds:  s.outageSecs.Load(),
		RestoreSeconds: s.restoreSecs.Load(),
		VoltageSamples: s.voltSamples.Load(),
	}
	for k := 0; k < maxKinds; k++ {
		if n := s.byKind[k].Load(); n > 0 {
			if sec.ByKind == nil {
				sec.ByKind = map[string]uint64{}
			}
			sec.ByKind[isa.Kind(k).String()] = n
		}
	}
	for b := 0; b < histBuckets; b++ {
		n := s.outageHist[b].Load()
		if n == 0 {
			continue
		}
		hb := HistBucket{Count: n}
		if b > 0 {
			hb.LoSeconds = histFloor * math.Pow(10, float64(b-1))
		}
		if b < histBuckets-1 {
			hb.HiSeconds = histFloor * math.Pow(10, float64(b))
		}
		sec.OutageHist = append(sec.OutageHist, hb)
	}
	if sec.VoltageSamples > 0 {
		sec.VoltageMin = s.voltMin.Load()
		sec.VoltageMax = s.voltMax.Load()
	}
	for t := 0; t < maxTrackedTiles; t++ {
		if w := s.tileWrites[t].Load(); w > 0 {
			sec.TileWrites = append(sec.TileWrites, TileWrites{
				Tile: t, Writes: w, Bits: s.tileBits[t].Load(),
			})
		}
	}
	sort.Slice(sec.TileWrites, func(i, j int) bool {
		return sec.TileWrites[i].Tile < sec.TileWrites[j].Tile
	})
	return sec
}

// WriteSummary prints a human-readable digest of the section.
func (sec *Section) WriteSummary(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"instructions  %d (%d replayed)\noutages       %d (%.6g s powered off)\nrestores      %d (%.6g s, %.4g J)\ninterrupts    %d (%.4g J lost)\n",
		sec.Instructions, sec.Replays,
		sec.Outages, sec.OutageSeconds,
		sec.Restores, sec.RestoreSeconds, sec.Energy.Restore,
		sec.Interrupts, sec.Energy.Lost); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"energy        compute %.4g J, backup %.4g J, restore %.4g J, dead %.4g J\n",
		sec.Energy.Compute, sec.Energy.Backup, sec.Energy.Restore,
		sec.Energy.Lost+sec.Energy.Replay); err != nil {
		return err
	}
	if sec.VoltageSamples > 0 {
		if _, err := fmt.Fprintf(w, "capacitor     %.4g V .. %.4g V (%d samples)\n",
			sec.VoltageMin, sec.VoltageMax, sec.VoltageSamples); err != nil {
			return err
		}
	}
	if n := len(sec.TileWrites); n > 0 {
		var writes uint64
		for _, tw := range sec.TileWrites {
			writes += tw.Writes
		}
		if _, err := fmt.Fprintf(w, "tile writes   %d across %d tiles\n", writes, n); err != nil {
			return err
		}
	}
	return nil
}

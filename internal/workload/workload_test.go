package workload

import (
	"testing"

	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/sim"
)

func TestBenchmarkListMatchesTableIV(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 6 {
		t.Fatalf("%d benchmarks, want 6", len(bs))
	}
	sv := map[string]int{
		"SVM MNIST": 11813, "SVM MNIST (Bin)": 12214, "SVM HAR": 2809, "SVM ADULT": 1909,
	}
	for name, want := range sv {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumSV != want {
			t.Errorf("%s: NumSV = %d, want %d", name, s.NumSV, want)
		}
	}
	finn, err := ByName("BNN FINN MNIST")
	if err != nil {
		t.Fatal(err)
	}
	if len(finn.Hidden) != 3 || finn.Hidden[0] != 1024 || finn.InputBits != 1 {
		t.Errorf("FINN spec wrong: %+v", finn)
	}
	fp, err := ByName("BNN FPBNN MNIST")
	if err != nil {
		t.Fatal(err)
	}
	if fp.Hidden[0] != 2048 || fp.InputBits != 8 {
		t.Errorf("FP-BNN spec wrong: %+v", fp)
	}
	if _, err := ByName("nope"); err == nil {
		t.Errorf("unknown benchmark accepted")
	}
}

func TestTiles(t *testing.T) {
	s, _ := ByName("SVM MNIST")
	if s.Tiles() != 512 {
		t.Errorf("64 MB = %d tiles, want 512", s.Tiles())
	}
	s, _ = ByName("SVM ADULT")
	if s.Tiles() != 8 {
		t.Errorf("1 MB = %d tiles, want 8", s.Tiles())
	}
}

func TestStreamMatchesPhaseCounts(t *testing.T) {
	for _, s := range Benchmarks() {
		want := s.Instructions()
		if want <= 0 {
			t.Fatalf("%s: no instructions", s.Name)
		}
		runs := s.Stream().Runs()
		var got int64
		for i, r := range runs {
			if r.Count <= 0 || (i > 0 && runs[i-1].Op == r.Op) {
				t.Errorf("%s: run %d %+v breaks the compact encoding", s.Name, i, r)
			}
			got += r.Count
		}
		if got != want {
			t.Errorf("%s: stream yielded %d ops, phases say %d", s.Name, got, want)
		}
	}
}

func TestPhasesRespectBudget(t *testing.T) {
	for _, s := range Benchmarks() {
		budget := s.budget()
		for _, p := range s.Phases() {
			if p.Count <= 0 {
				t.Errorf("%s: phase %q has count %d", s.Name, p.Name, p.Count)
			}
			if p.Op.ActivePairs > budget {
				t.Errorf("%s: phase %q activates %d pairs beyond budget %d", s.Name, p.Name, p.Op.ActivePairs, budget)
			}
			if p.Op.ActivePairs > s.Tiles()*isa.Cols {
				t.Errorf("%s: phase %q exceeds physical columns", s.Name, p.Name)
			}
		}
	}
}

// TestContinuousLatencyNearTableIV checks the calibration: each
// benchmark's continuous-power latency must land within 4× of the
// paper's Table IV value (we match the shape, not the testbed).
func TestContinuousLatencyNearTableIV(t *testing.T) {
	paper := map[string]float64{ // µs
		"SVM MNIST":       23936,
		"SVM MNIST (Bin)": 6575,
		"SVM HAR":         11805,
		"SVM ADULT":       1189,
		"BNN FINN MNIST":  1485,
		"BNN FPBNN MNIST": 2007,
	}
	r := sim.NewRunner(energy.NewModel(mtj.ModernSTT()))
	for _, s := range Benchmarks() {
		res := r.RunContinuous(s.Stream())
		got := res.OnLatency * 1e6
		want := paper[s.Name]
		if got < want/4 || got > want*4 {
			t.Errorf("%s: latency %.0f µs not within 4× of paper's %.0f µs", s.Name, got, want)
		}
	}
}

// TestContinuousEnergyNearTableIV does the same for energy.
func TestContinuousEnergyNearTableIV(t *testing.T) {
	paper := map[string]float64{ // µJ
		"SVM MNIST":       1384,
		"SVM MNIST (Bin)": 65.49,
		"SVM HAR":         468.6,
		"SVM ADULT":       7.24,
		"BNN FINN MNIST":  14.33,
		"BNN FPBNN MNIST": 99.9,
	}
	r := sim.NewRunner(energy.NewModel(mtj.ModernSTT()))
	for _, s := range Benchmarks() {
		res := r.RunContinuous(s.Stream())
		got := res.TotalEnergy() * 1e6
		want := paper[s.Name]
		if got < want/4 || got > want*4 {
			t.Errorf("%s: energy %.2f µJ not within 4× of paper's %.2f µJ", s.Name, got, want)
		}
	}
}

// TestTableIVOrderings: the qualitative relations the paper draws from
// Table IV must hold.
func TestTableIVOrderings(t *testing.T) {
	r := sim.NewRunner(energy.NewModel(mtj.ModernSTT()))
	res := map[string]sim.Result{}
	for _, s := range Benchmarks() {
		res[s.Name] = r.RunContinuous(s.Stream())
	}
	// Binarization cuts both latency and energy dramatically.
	if res["SVM MNIST (Bin)"].TotalEnergy() >= res["SVM MNIST"].TotalEnergy()/5 {
		t.Errorf("binarized MNIST energy not ≪ full-precision")
	}
	if res["SVM MNIST (Bin)"].OnLatency >= res["SVM MNIST"].OnLatency {
		t.Errorf("binarized MNIST not faster")
	}
	// FP-BNN burns more energy than FINN and than binarized SVM, but is
	// faster than the binarized SVM (the Fig. 9 crossover driver).
	if res["BNN FPBNN MNIST"].TotalEnergy() <= res["BNN FINN MNIST"].TotalEnergy() {
		t.Errorf("FP-BNN energy not above FINN")
	}
	if res["BNN FPBNN MNIST"].TotalEnergy() <= res["SVM MNIST (Bin)"].TotalEnergy() {
		t.Errorf("FP-BNN energy not above binarized SVM")
	}
	if res["BNN FPBNN MNIST"].OnLatency >= res["SVM MNIST (Bin)"].OnLatency {
		t.Errorf("FP-BNN latency not below binarized SVM")
	}
	// ADULT (the smallest problem) is the fastest benchmark, and FINN is
	// the fastest MNIST benchmark, as in Table IV.
	for name, r := range res {
		if name == "SVM ADULT" {
			continue
		}
		if r.OnLatency < res["SVM ADULT"].OnLatency {
			t.Errorf("%s faster than ADULT", name)
		}
	}
	for _, name := range []string{"SVM MNIST", "SVM MNIST (Bin)", "BNN FPBNN MNIST"} {
		if res[name].OnLatency < res["BNN FINN MNIST"].OnLatency {
			t.Errorf("%s faster than FINN", name)
		}
	}
}

// TestSHEBeatsSTT: the SHE configuration consumes less energy on every
// benchmark (Section IX).
func TestSHEBeatsSTT(t *testing.T) {
	stt := sim.NewRunner(energy.NewModel(mtj.ProjectedSTT()))
	she := sim.NewRunner(energy.NewModel(mtj.ProjectedSHE()))
	for _, s := range Benchmarks() {
		es := stt.RunContinuous(s.Stream()).TotalEnergy()
		eh := she.RunContinuous(s.Stream()).TotalEnergy()
		if eh >= es {
			t.Errorf("%s: SHE energy %g not below STT %g", s.Name, eh, es)
		}
	}
}

func TestCostProbesArePositive(t *testing.T) {
	if costMAC(8, 26) <= 0 || costAdd(24) <= 0 || costAddFixed(16) <= 0 {
		t.Errorf("non-positive macro costs")
	}
	if costSquare(20) <= costAdd(20) {
		t.Errorf("square should cost more than add")
	}
	if costPopTree(400) <= costPopTree(100) {
		t.Errorf("popcount cost not increasing")
	}
	// Extrapolated cost roughly linear: pop(384) ≈ 2×pop(192).
	lo, hi := costPopTree(192), costPopTree(384)
	if hi < lo*3/2 || hi > lo*3 {
		t.Errorf("popcount extrapolation off: %d vs %d", lo, hi)
	}
}

func TestCustomSpecs(t *testing.T) {
	s, err := CustomSVM("my-svm", 100, 8, 500, 4, 3<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s.MemBytes != 4<<20 {
		t.Errorf("memory not fitted to a power of two: %d", s.MemBytes)
	}
	if s.Instructions() <= 0 {
		t.Errorf("custom SVM produced no work")
	}
	r := sim.NewRunner(energy.NewModel(mtj.ModernSTT()))
	res := r.RunContinuous(s.Stream())
	if !res.Completed || res.TotalEnergy() <= 0 {
		t.Errorf("custom SVM did not run: %+v", res.Breakdown)
	}

	bn, err := CustomBNN("my-bnn", 64, 1, []int{128, 64}, 5, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if bn.Instructions() <= 0 {
		t.Errorf("custom BNN produced no work")
	}

	bad := []error{
		errOf(CustomSVM("x", 0, 8, 10, 2, 1<<20)),
		errOf(CustomSVM("x", 10, 4, 10, 2, 1<<20)),
		errOf(CustomSVM("x", 10, 8, 0, 2, 1<<20)),
		errOf(CustomSVM("x", 10, 8, 10, 0, 1<<20)),
		errOf(CustomBNN("x", 10, 1, nil, 2, 1<<20)),
		errOf(CustomBNN("x", 10, 1, []int{0}, 2, 1<<20)),
	}
	for i, err := range bad {
		if err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func errOf(_ Spec, err error) error { return err }

func TestBuiltinBenchmarksValidate(t *testing.T) {
	for _, s := range Benchmarks() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

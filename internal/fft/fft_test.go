package fft

import (
	"math"
	"math/rand"
	"testing"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/mtj"
)

func TestParamsValidate(t *testing.T) {
	good := Params{N: 8, Width: 16, Frac: 8}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{N: 3, Width: 16, Frac: 8},
		{N: 1, Width: 16, Frac: 8},
		{N: 8, Width: 2, Frac: 1},
		{N: 8, Width: 40, Frac: 8},
		{N: 8, Width: 16, Frac: 0},
		{N: 8, Width: 16, Frac: 16},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v validated", p)
		}
	}
}

func TestTwiddles(t *testing.T) {
	p := Params{N: 8, Width: 16, Frac: 8}
	wre, wim := p.Twiddle(0)
	if wre != 256 || wim != 0 {
		t.Errorf("W^0 = (%d, %d), want (256, 0)", wre, wim)
	}
	wre, wim = p.Twiddle(2) // -90°
	if wre != 0 || wim != -256 {
		t.Errorf("W^2 = (%d, %d), want (0, -256)", wre, wim)
	}
	wre, wim = p.Twiddle(1) // -45°
	if wre != 181 || wim != -181 {
		t.Errorf("W^1 = (%d, %d), want (181, -181)", wre, wim)
	}
}

func TestBitReverse(t *testing.T) {
	p := Params{N: 8, Width: 16, Frac: 8}
	want := []int{0, 4, 2, 6, 1, 5, 3, 7}
	for i, w := range want {
		if got := p.bitReverse(i); got != w {
			t.Errorf("bitReverse(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestReferenceImpulse(t *testing.T) {
	// FFT of a unit impulse is flat ones.
	re := make([]float64, 8)
	im := make([]float64, 8)
	re[0] = 1
	Reference(re, im)
	for k := range re {
		if math.Abs(re[k]-1) > 1e-12 || math.Abs(im[k]) > 1e-12 {
			t.Fatalf("bin %d = (%g, %g), want (1, 0)", k, re[k], im[k])
		}
	}
}

func TestReferenceSinusoid(t *testing.T) {
	// A pure tone concentrates in its bin.
	const n, tone = 16, 3
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = math.Cos(2 * math.Pi * tone * float64(i) / n)
	}
	Reference(re, im)
	for k := range re {
		mag := math.Hypot(re[k], im[k])
		want := 0.0
		if k == tone || k == n-tone {
			want = n / 2
		}
		if math.Abs(mag-want) > 1e-9 {
			t.Fatalf("bin %d magnitude %g, want %g", k, mag, want)
		}
	}
}

func TestTransformTracksReference(t *testing.T) {
	p := Params{N: 16, Width: 18, Frac: 9}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		fre := make([]float64, p.N)
		fim := make([]float64, p.N)
		ire := make([]int64, p.N)
		iim := make([]int64, p.N)
		for i := range fre {
			v := rng.Intn(255) - 127
			fre[i] = float64(v)
			ire[i] = int64(v)
		}
		Reference(fre, fim)
		if err := p.Transform(ire, iim); err != nil {
			t.Fatal(err)
		}
		// Fixed-point error stays within a few LSBs per stage.
		tol := float64(p.N) * 2
		for k := range fre {
			if math.Abs(fre[k]-float64(ire[k])) > tol || math.Abs(fim[k]-float64(iim[k])) > tol {
				t.Fatalf("trial %d bin %d: fixed (%d, %d) vs float (%.1f, %.1f)",
					trial, k, ire[k], iim[k], fre[k], fim[k])
			}
		}
	}
}

func TestTransformValidates(t *testing.T) {
	p := Params{N: 8, Width: 16, Frac: 8}
	if err := p.Transform(make([]int64, 4), make([]int64, 8)); err == nil {
		t.Errorf("short input accepted")
	}
	if err := (Params{N: 3, Width: 16, Frac: 8}).Transform(nil, nil); err == nil {
		t.Errorf("bad params accepted")
	}
}

// TestCompiledFFTMatchesGolden runs the compiled MOUSE FFT gate by gate
// on the functional array, a batch of signals across columns, and
// requires bit-identical spectra to the integer golden model.
func TestCompiledFFTMatchesGolden(t *testing.T) {
	p := Params{N: 8, Width: 14, Frac: 7}
	const batch = 3
	mp, err := Compile(p, 1024, batch)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("compiled %d-point FFT: %d instructions, %d gates", p.N, len(mp.Prog), mp.Gates)

	mach := array.NewMachine(mtj.ModernSTT(), 1, 1024, batch)
	rng := rand.New(rand.NewSource(4))
	signals := make([][2][]int64, batch)
	mask := uint64(1<<p.Width - 1)
	for col := range signals {
		re := make([]int64, p.N)
		im := make([]int64, p.N)
		for i := range re {
			re[i] = int64(rng.Intn(127) - 63)
			im[i] = int64(rng.Intn(127) - 63)
		}
		signals[col] = [2][]int64{re, im}
		for i := 0; i < p.N; i++ {
			loadWord(mach, mp.InRe[i], col, uint64(re[i])&mask)
			loadWord(mach, mp.InIm[i], col, uint64(im[i])&mask)
		}
	}
	c := controller.New(controller.ProgramStore(mp.Prog), mach)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for col, sig := range signals {
		wantRe := append([]int64(nil), sig[0]...)
		wantIm := append([]int64(nil), sig[1]...)
		if err := p.Transform(wantRe, wantIm); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < p.N; k++ {
			gotRe := DecodeSigned(readWord(mach, mp.OutRe[k], col))
			gotIm := DecodeSigned(readWord(mach, mp.OutIm[k], col))
			if gotRe != wantRe[k] || gotIm != wantIm[k] {
				t.Fatalf("col %d bin %d: hardware (%d, %d) vs golden (%d, %d)",
					col, k, gotRe, gotIm, wantRe[k], wantIm[k])
			}
		}
	}
}

func loadWord(m *array.Machine, rows []int, col int, v uint64) {
	for i, row := range rows {
		m.Tiles[0].SetBit(row, col, int(v>>i)&1)
	}
}

func readWord(m *array.Machine, rows []int, col int) []int {
	bits := make([]int, len(rows))
	for i, row := range rows {
		bits[i] = m.Tiles[0].Bit(row, col)
	}
	return bits
}

func TestCompileValidates(t *testing.T) {
	if _, err := Compile(Params{N: 3, Width: 16, Frac: 8}, 1024, 1); err == nil {
		t.Errorf("bad params accepted")
	}
	if _, err := Compile(Params{N: 8, Width: 16, Frac: 8}, 1024, 0); err == nil {
		t.Errorf("zero batch accepted")
	}
	if _, err := Compile(Params{N: 64, Width: 16, Frac: 8}, 128, 1); err == nil {
		t.Errorf("tiny row budget accepted")
	}
}

func TestButterflyGates(t *testing.T) {
	g, err := ButterflyGates(Params{N: 1024, Width: 16, Frac: 8})
	if err != nil {
		t.Fatal(err)
	}
	if g <= 0 {
		t.Fatalf("gate count %d", g)
	}
	if _, err := ButterflyGates(Params{N: 3}); err == nil {
		t.Errorf("bad params accepted")
	}
}

func TestWorkloadOps(t *testing.T) {
	p := Params{N: 64, Width: 16, Frac: 8}
	ops, err := Ops(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatalf("empty workload")
	}
	if ops[0].ActCols != p.N/2 {
		t.Errorf("first op should activate N/2 columns, got %d", ops[0].ActCols)
	}
	reads, writes := 0, 0
	for _, op := range ops {
		switch op.Kind.String() {
		case "read":
			reads++
		case "write":
			writes++
		}
	}
	if reads == 0 || reads != writes {
		t.Errorf("inter-stage exchange unbalanced: %d reads vs %d writes", reads, writes)
	}
	if _, err := Ops(Params{N: 3}); err == nil {
		t.Errorf("bad params accepted")
	}
	if _, err := Stream(Params{N: 3}); err == nil {
		t.Errorf("bad params accepted by Stream")
	}
	s, err := Stream(p)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, r := range s.Runs() {
		n += r.Count
	}
	if n != int64(len(ops)) {
		t.Errorf("stream yields %d ops, want %d", n, len(ops))
	}
}

func TestMiBenchParams(t *testing.T) {
	p := MiBenchParams()
	if p.N != 1024 || p.Width != 16 || p.Frac != 8 {
		t.Errorf("MiBench params %+v", p)
	}
	if p.String() != "1024-point Q8.8" {
		t.Errorf("String = %q", p.String())
	}
	if NVPLatency <= CRAFFTLatency {
		t.Errorf("reference latencies inverted")
	}
}

package fsum

import (
	"math"
	"math/rand"
	"testing"
)

// loop is AddN's definition: n sequential adds, no shortcuts.
func loop(s, x float64, n uint64) float64 {
	for ; n > 0; n-- {
		s += x
	}
	return s
}

// sameBits compares two sums bit for bit, treating every NaN as equal
// (the loop's NaN payload is whatever the hardware propagates, and
// AddN's loop fallback produces the same one).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// randOperand draws from the value classes the simulators' sums meet
// and the ones where rounding is delicate: ties (x exactly half an ulp
// of some binade off the grid), subnormals, zeros, huge values near
// overflow, and plain random magnitudes.
func randOperand(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		// An odd multiple of 2^(e-54): a tie against binade e's grid.
		return float64(2*rng.Int63n(1<<20)+1) * math.Ldexp(1, rng.Intn(80)-60)
	case 2:
		return math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
	case 3:
		return math.MaxFloat64 * rng.Float64()
	case 4:
		return rng.Float64() * math.Ldexp(1, rng.Intn(40)-20)
	default:
		return rng.Float64() * math.Ldexp(1, rng.Intn(200)-100)
	}
}

func TestAddNMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		s, x := randOperand(rng), randOperand(rng)
		if rng.Intn(4) == 0 {
			// Start from a sum already many steps along.
			s = x * float64(rng.Intn(1000))
		}
		if rng.Intn(8) == 0 {
			x = -x
		}
		if rng.Intn(8) == 0 {
			s = -s
		}
		n := uint64(rng.Intn(3000))
		if i%100 == 0 {
			n = uint64(rng.Intn(300000))
		}
		if got, want := AddN(s, x, n), loop(s, x, n); !sameBits(got, want) {
			t.Fatalf("AddN(%v, %v, %d) = %v (%#x), loop gives %v (%#x)",
				s, x, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestAddNSpecialValues(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Ldexp(1, -1022), math.MaxFloat64, -math.MaxFloat64,
		math.MaxFloat64 / 3, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Ldexp(1, -53), math.Ldexp(3, -54),
	}
	for _, s := range specials {
		for _, x := range specials {
			for _, n := range []uint64{0, 1, 2, 3, 17, 1000} {
				if got, want := AddN(s, x, n), loop(s, x, n); !sameBits(got, want) {
					t.Errorf("AddN(%v, %v, %d) = %v, loop gives %v", s, x, n, got, want)
				}
			}
		}
	}
}

// TestAddNIsFast pins the point of AddN: a million adds of a value that
// never pins the sum cost a few binade crossings, not a million adds.
func TestAddNIsFast(t *testing.T) {
	const n = 1 << 40 // a loop would take minutes
	got := AddN(0, 1, n)
	if got != n {
		t.Fatalf("AddN(0, 1, 2^40) = %v", got)
	}
}

// FuzzAddN checks AddN against the loop on arbitrary operands: negative,
// zero, subnormal, huge, infinite and NaN values all arrive as raw bit
// patterns, and the tie flag turns x into an odd multiple of half an ulp
// of s's binade.
func FuzzAddN(f *testing.F) {
	f.Add(uint64(0), math.Float64bits(0.1), uint32(1000), false)
	f.Add(math.Float64bits(1), math.Float64bits(math.Ldexp(3, -54)), uint32(5000), false)
	f.Add(math.Float64bits(1.5), uint64(7), uint32(300), true)
	f.Add(math.Float64bits(math.MaxFloat64/2), math.Float64bits(math.MaxFloat64/7), uint32(20), false)
	f.Add(math.Float64bits(-2), math.Float64bits(-1e-16), uint32(65535), false)
	f.Add(uint64(1), uint64(3), uint32(4000), false)
	f.Add(math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), uint32(3), false)
	f.Fuzz(func(t *testing.T, sBits, xBits uint64, n32 uint32, tie bool) {
		s, x := math.Float64frombits(sBits), math.Float64frombits(xBits)
		if tie && s != 0 && !math.IsInf(s, 0) && !math.IsNaN(s) {
			// xBits picks the odd multiplier; the half-ulp is s's.
			_, e := math.Frexp(s)
			x = math.Copysign(float64(2*(xBits%(1<<20))+1)*math.Ldexp(1, e-54), s)
		}
		n := uint64(n32 % (1 << 18))
		if got, want := AddN(s, x, n), loop(s, x, n); !sameBits(got, want) {
			t.Fatalf("AddN(%v, %v, %d) = %v (%#x), loop gives %v (%#x)",
				s, x, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// Package fsum holds exact float64 summation shortcuts: results that
// equal, bit for bit, what a longer sequence of IEEE-754 additions
// produces, at a fraction of the cost. The simulators need them because
// their differential tests compare float accumulators with ==, so a
// sum of n equal terms may be folded only if the fold rounds exactly as
// the n single adds do.
package fsum

import "math"

// AddN returns the value n sequential additions s += x leave in s, bit
// for bit, in O(log n) steps for the common case of same-signed finite
// operands.
//
// Within one binade of s (the range [2^(e-1), 2^e) its exponent spans),
// every add moves s by the same rounded step d = (s+x) - s. The one
// exception is a tie, where x lies exactly half a unit in the last place
// off the grid and round-half-to-even picks the step by the parity of s;
// a tie's result is always even, so after one add that starts and ends
// inside the binade the step is fixed too. AddN therefore does single
// adds until one stays inside its binade, then applies as many whole
// steps as keep s at least one step below the binade's upper edge in a
// single exact s += m*d, and repeats until n adds are spent.
//
// Operands of opposite signs, whose sum shrinks toward zero, and
// non-finite operands take the plain loop, which stops early once the
// sum no longer changes.
func AddN(s, x float64, n uint64) float64 {
	if x < 0 && s <= 0 {
		// Round-half-to-even is symmetric under negation.
		return -AddN(-s, -x, n)
	}
	if !(x >= 0 && s >= 0) || math.IsInf(s, 0) || math.IsInf(x, 0) {
		return addLoop(s, x, n)
	}
	for n > 0 {
		// Single adds until one starts and ends in the same binade.
		for n > 0 {
			e := exponent(s)
			s += x
			n--
			if exponent(s) == e {
				break
			}
		}
		if n == 0 {
			return s
		}
		d := (s + x) - s
		if !(d > 0 && d <= math.MaxFloat64) {
			// The sum no longer moves, has overflowed, or is about to:
			// finish on the loop, which stops as soon as s is fixed.
			return addLoop(s, x, n)
		}
		// gap is 2^e - s, computed exactly even in the top binade where
		// 2^e itself overflows: half - s is exact by Sterbenz's lemma,
		// and adding half back lands on a multiple of s's ulp below half.
		half := math.Ldexp(1, exponent(s)-1)
		gap := (half - s) + half
		q := math.Floor(gap/d) - 1
		if q < 1 {
			continue
		}
		m := n
		if q < float64(n) {
			m = uint64(q)
		}
		// m*d and s + m*d are multiples of s's ulp below 2^e: exact.
		s += float64(m) * d
		n -= m
	}
	return s
}

// exponent is the binary exponent e with s in [2^(e-1), 2^e).
func exponent(s float64) int {
	_, e := math.Frexp(s)
	return e
}

// addLoop is the definition AddN reproduces, with an early exit once an
// add leaves s unchanged: every later add then does too.
func addLoop(s, x float64, n uint64) float64 {
	for ; n > 0; n-- {
		next := s + x
		if math.Float64bits(next) == math.Float64bits(s) {
			break
		}
		s = next
	}
	return s
}

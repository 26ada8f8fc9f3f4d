package data

import (
	"math"
	"math/bits"
)

// parseDecimal converts the plain decimal number at the front of b,
// [+-]digits[.digits][(e|E)[+-]digits] with at least one mantissa digit, to
// the float64 strconv.ParseFloat gives it, in one pass over its bytes. It
// returns the value and the number of bytes read. It takes only numbers it
// converts exactly: at most 19 significant digits and a decimal exponent
// within ±22, or within ±19 past 2^53. For any other number, and any other
// spelling, ok is false and n says where it stopped; the caller then hands
// the whole field to strconv.
//
// The two exact conversions (Clinger, PLDI 1990; Lemire, arXiv 2101.11408;
// DESIGN.md, "The readers"):
//   - mantissa ≤ 2^53 and |e10| ≤ 22 (Clinger's fast path): the mantissa
//     and 10^|e10| are both exact float64s, so one IEEE multiply or divide
//     rounds their product or quotient correctly;
//   - otherwise, |e10| ≤ 19: 10^|e10| is an exact uint64, so the product is
//     an exact 128-bit integer and the quotient an exact 64-bit one plus a
//     remainder. Either is cut to its top 64 bits with every dropped bit
//     folded into bit 0 (the sticky bit), which leaves eleven bits below the
//     53 a float64 keeps: float64(uint64) then rounds to nearest-even as
//     the exact value would, and the power-of-two scale is exact, since
//     the results lie between 10^-19 and 2^128, far from the subnormals
//     and from overflow.
func parseDecimal(b []byte) (v float64, n int, ok bool) {
	neg := false
	if n < len(b) && (b[n] == '+' || b[n] == '-') {
		neg = b[n] == '-'
		n++
	}
	// The digits accumulate with no per-digit test of significance: leading
	// zeros leave mant at zero, so mant is exact whenever at most 19 digits
	// follow them, and only a longer run needs counting afterwards.
	var mant uint64
	start := n
	for ; n < len(b) && b[n]-'0' <= 9; n++ {
		mant = mant*10 + uint64(b[n]-'0')
	}
	digits, e10 := n-start, 0
	if n < len(b) && b[n] == '.' {
		n++
		frac := n
		for ; n < len(b) && b[n]-'0' <= 9; n++ {
			mant = mant*10 + uint64(b[n]-'0')
		}
		e10 = frac - n
		digits += n - frac
	}
	if digits == 0 {
		return 0, n, false
	}
	if digits > 19 {
		sig := digits
		for i := start; i < n && (b[i] == '0' || b[i] == '.'); i++ {
			if b[i] == '0' {
				sig--
			}
		}
		if sig > 19 {
			return 0, n, false
		}
	}
	if n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		n++
		eneg := false
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			eneg = b[n] == '-'
			n++
		}
		exp, expDigits := 0, 0
		for ; n < len(b) && b[n]-'0' <= 9; n++ {
			expDigits++
			if exp < 10000 { // far past every exact range; stops overflow
				exp = exp*10 + int(b[n]-'0')
			}
		}
		if expDigits == 0 {
			return 0, n, false
		}
		if eneg {
			exp = -exp
		}
		e10 += exp
	}

	switch {
	case mant <= 1<<53 && -22 <= e10 && e10 <= 22:
		v = float64(mant)
		if e10 >= 0 {
			v *= float64pow10[e10]
		} else {
			v /= float64pow10[-e10]
		}
	case 0 <= e10 && e10 <= 19:
		hi, lo := bits.Mul64(mant, uint64pow10[e10])
		s := 64 - bits.LeadingZeros64(hi) // bits to drop from the 128-bit product
		top := hi<<(64-s) | lo>>s
		if lo<<(64-s) != 0 {
			top |= 1
		}
		v = float64(top) * pow2(s)
	case -19 <= e10 && e10 < 0:
		// The mantissa's top bit goes to bit 127 of the numerator and the
		// divisor's to bit 63, so the quotient has 64 bits; if the
		// numerator's high word is not below the divisor, it is halved
		// first (Div64 needs hi < y).
		lz := bits.LeadingZeros64(mant)
		dz := bits.LeadingZeros64(uint64pow10[-e10])
		num, den := mant<<lz, uint64pow10[-e10]<<dz
		var lo uint64
		scale := dz - lz - 64
		if num >= den {
			num, lo = num>>1, num<<63
			scale++
		}
		q, rem := bits.Div64(num, lo, den)
		if rem != 0 {
			q |= 1
		}
		v = float64(q) * pow2(scale)
	default:
		return 0, n, false
	}
	if neg {
		v = -v
	}
	return v, n, true
}

// pow2 is 2^e as a float64, for e in the normal range.
func pow2(e int) float64 {
	return math.Float64frombits(uint64(1023+e) << 52)
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// uint64pow10 holds the powers of ten a uint64 holds.
var uint64pow10 = [...]uint64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

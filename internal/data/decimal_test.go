package data

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// checkDecimal holds parseDecimal to strconv.ParseFloat on one input: where
// the converter takes a number, strconv must read the same bytes to the
// same bits. It reports whether the converter took it.
func checkDecimal(t *testing.T, b []byte) bool {
	t.Helper()
	v, n, ok := parseDecimal(b)
	if n < 0 || n > len(b) {
		t.Fatalf("%q: read %d bytes of %d", b, n, len(b))
	}
	if !ok {
		return false
	}
	want, err := strconv.ParseFloat(string(b[:n]), 64)
	if err != nil {
		t.Fatalf("%q: converter took %q as %v, strconv refuses it: %v", b, b[:n], v, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("%q: converter %v (%#x), strconv %v (%#x)", b[:n], v, math.Float64bits(v), want, math.Float64bits(want))
	}
	return true
}

// decimalSeeds are the boundaries of the two exact branches and the
// spellings at the edge of the grammar.
var decimalSeeds = []string{
	"0", "-0", "+0", "0.0", "-0.0", "0e999", "-0e-999",
	// 2^53 − 1, 2^53 and 2^53 + 1: the last leaves Clinger's path.
	"9007199254740991", "9007199254740992", "9007199254740993",
	"-9007199254740993", "9007199254740993e-3", "9007199254740995e5",
	// Halfway ties past 2^53, in both 128-bit branches.
	"9007199254740993e1", "9007199254740993e-1", "18014398509481985", "36028797018963971e-19",
	// 19 and 20 significant digits.
	"1234567890123456789", "12345678901234567890", "9999999999999999999",
	"9999999999999999999e19", "9999999999999999999e-19", "1.234567890123456789",
	"0.00000000001234567890123456789", "1000000000000000000.0", "000000000000000000001",
	"1.0000000000000000000", "0.12345678901234567890e1", "00.1234567890123456789",
	// Decimal exponents ±19, ±22 and ±23.
	"1e19", "1e-19", "1e22", "1e-22", "1e23", "1e-23", "12345678901234567e19",
	"12345678901234567e-19", "3e22", "3e-22", "3e23", "3e-23",
	// Subnormals and the ends of the range: strconv's alone.
	"4.9e-324", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "1e309",
	// Short forms and broken ones.
	".5", "5.", "-.5", "+5.", "1e", "1e+", "-.e1", ".", "-", "+", "e5", ".e1",
	"1E5", "1e+05", "1e-05", "0x1p-2", "1_0", "Inf", "-inf", "NaN", "1e5e", "1..2",
	"0.1", "0.2", "0.3", "-123.456", "1.5,2", "7 8",
}

func TestParseDecimalSeeds(t *testing.T) {
	took := 0
	for _, s := range decimalSeeds {
		if checkDecimal(t, []byte(s)) {
			took++
		}
	}
	// Every branch must have run: the seeds include each one's cases.
	if took < len(decimalSeeds)/2 {
		t.Errorf("converter took %d of %d seeds", took, len(decimalSeeds))
	}
	for _, s := range []string{"1e", "-.e1", ".", "e5", "0x1p-2", "Inf", "4.9e-324", "12345678901234567890", "1e23"} {
		if _, n, ok := parseDecimal([]byte(s)); ok && n == len(s) {
			t.Errorf("%q: converter took it; it is strconv's", s)
		}
	}
	for _, s := range []string{"9007199254740993", "9007199254740993e-1", "1e22", "1e-22", "9999999999999999999e19",
		"9999999999999999999e-19", "00.1234567890123456789", "000000000000000000001"} {
		if _, _, ok := parseDecimal([]byte(s)); !ok {
			t.Errorf("%q: converter left it to strconv", s)
		}
	}
}

// TestParseDecimalMatchesStrconv: the converter against strconv on 10^7
// generated strings: FormatFloat output of values spread over the exact
// branches and beyond, in 'g' shortest, 'e' and 'f' at several precisions,
// and random digit strings of at most 20 digits with exponents in ±25. The
// strings come from four fixed seeds, one goroutine each.
func TestParseDecimalMatchesStrconv(t *testing.T) {
	const shards = 4
	total := 10_000_000
	if testing.Short() {
		total = 200_000
	}
	var took [shards]int
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			took[s] = matchStrconv(t, rand.New(rand.NewSource(int64(56+s))), total/shards)
		}(s)
	}
	wg.Wait()
	sum := 0
	for _, k := range took {
		sum += k
	}
	t.Logf("converter took %d of %d strings", sum, total)
	if sum < total/2 {
		t.Errorf("converter took %d of %d strings; the fast path is not being tested", sum, total)
	}
}

// matchStrconv checks count generated strings and returns how many the
// converter took. It stops at the first mismatch.
func matchStrconv(t *testing.T, rng *rand.Rand, count int) int {
	buf := make([]byte, 0, 64)
	took := 0
	for i := 0; i < count; i++ {
		buf = buf[:0]
		switch i % 5 {
		case 0, 1, 2:
			v := randomFloat(rng)
			switch {
			case i%3 == 0:
				buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
			case i%3 == 1 || math.Abs(v) >= 1e25: // 'f' would spell out hundreds of digits
				buf = strconv.AppendFloat(buf, v, 'e', rng.Intn(18), 64)
			default:
				buf = strconv.AppendFloat(buf, v, 'f', rng.Intn(18), 64)
			}
		default:
			buf = randomDecimal(rng, buf)
		}
		v, n, ok := parseDecimal(buf)
		if !ok {
			continue
		}
		took++
		want, err := strconv.ParseFloat(string(buf), 64)
		if n != len(buf) || err != nil || math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("%q: converter %v (%d of %d bytes), strconv %v, %v", buf, v, n, len(buf), want, err)
			return took
		}
	}
	return took
}

// randomFloat is a float64 whose decimal form lands in one of the
// converter's branches or just past them: a random mantissa of 1 to 19
// digits times 10^[-25, 25], or arbitrary bits.
func randomFloat(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		for {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	mant := rng.Uint64() % uint64pow10[1+rng.Intn(19)]
	v := float64(mant) * math.Pow(10, float64(rng.Intn(51)-25))
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// randomDecimal appends a random decimal: a sign, up to 20 digits with a
// point somewhere or nowhere, and an exponent in ±25.
func randomDecimal(rng *rand.Rand, buf []byte) []byte {
	switch rng.Intn(3) {
	case 0:
		buf = append(buf, '-')
	case 1:
		buf = append(buf, '+')
	}
	digits := 1 + rng.Intn(20)
	point := rng.Intn(digits + 2) // digits+1: no point
	for k := 0; k < digits; k++ {
		if k == point {
			buf = append(buf, '.')
		}
		d := byte(rng.Intn(10))
		if k == 0 && rng.Intn(4) == 0 {
			d = 0 // leading zeros, skipped as insignificant
		}
		buf = append(buf, '0'+d)
	}
	if point == digits {
		buf = append(buf, '.')
	}
	if rng.Intn(4) != 0 {
		buf = append(buf, "eE"[rng.Intn(2)])
		buf = strconv.AppendInt(buf, int64(rng.Intn(51)-25), 10)
	}
	return buf
}

// FuzzParseCoordinate feeds arbitrary bytes to the converter: whatever it
// takes must be what strconv.ParseFloat reads from the same bytes, bit for
// bit, and it must never read past the input.
func FuzzParseCoordinate(f *testing.F) {
	for _, s := range decimalSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecimal(t, b)
	})
}

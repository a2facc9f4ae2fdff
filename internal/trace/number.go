package trace

import (
	"math"
	"math/bits"
	"strconv"
)

// pow10u holds 10^k for every k whose power fits a uint64.
var pow10u = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// appendFixed appends v formatted with prec digits after the decimal
// point, byte-identical to strconv.AppendFloat(buf, v, 'f', prec, 64)
// but without strconv's multiprecision path, which 'f' with an explicit
// precision always takes.
//
// A finite float64 is exactly mant·2^e with a 53-bit mant. For
// |v| < 2^52, e is negative, so v·10^prec = mant·10^prec / 2^-e: the
// 128-bit product mant·10^prec (bits.Mul64) shifted right by -e, with
// the bits shifted out compared exactly against one half to round half
// to even — the rounding strconv applies to the exact decimal
// expansion. NaN, ±Inf, |v| ≥ 2^52 and precisions beyond 10^19 keep
// strconv.
func appendFixed(buf []byte, v float64, prec int) []byte {
	if prec < 0 || prec >= len(pow10u) || !(math.Abs(v) < 1<<52) {
		return strconv.AppendFloat(buf, v, 'f', prec, 64)
	}
	b := math.Float64bits(v)
	mant := b & (1<<52 - 1)
	exp := int(b>>52) & 0x7ff
	if exp == 0 {
		exp = 1 // subnormal: no implicit leading bit
	} else {
		mant |= 1 << 52
	}
	shift := uint(1075 - exp) // v = mant / 2^shift, shift >= 1
	pow := pow10u[prec]
	hi, lo := bits.Mul64(mant, pow)

	// q = (hi:lo) >> shift; r = the shifted-out bits; half = 2^(shift-1).
	var qHi, qLo uint64
	var up bool
	switch {
	case shift < 64:
		qHi = hi >> shift
		qLo = hi<<(64-shift) | lo>>shift
		r, half := lo&(1<<shift-1), uint64(1)<<(shift-1)
		up = r > half || r == half && qLo&1 == 1
	case shift == 64:
		qLo = hi
		up = lo > 1<<63 || lo == 1<<63 && qLo&1 == 1
	case shift < 128:
		s := shift - 64
		qLo = hi >> s
		rHi, halfHi := hi&(1<<s-1), uint64(1)<<(s-1)
		up = rHi > halfHi || rHi == halfHi && (lo > 0 || qLo&1 == 1)
	default:
		// mant·10^prec < 2^117 <= 2^(shift-1): below one half, so zero.
	}
	if up {
		var c uint64
		qLo, c = bits.Add64(qLo, 1, 0)
		qHi += c
	}
	// q < 2^52·10^prec + 1, so qHi < 10^prec and the division is safe.
	intPart, frac := bits.Div64(qHi, qLo, pow)

	if b>>63 != 0 {
		buf = append(buf, '-')
	}
	buf = strconv.AppendUint(buf, intPart, 10)
	if prec == 0 {
		return buf
	}
	buf = append(buf, '.')
	var digits [20]byte
	for i := prec - 1; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	return append(buf, digits[:prec]...)
}

// pow10f holds the powers of ten a float64 represents exactly.
var pow10f = [...]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
}

// parseFloat is strconv.ParseFloat(string(b), 64) — same value, same
// error — with a fast path for the plain decimals the writer emits.
// A field of the form -?d+(.d+)? with at most 15 digits is m/10^k for
// an integer m < 10^15: both m and 10^k are exact float64s and IEEE
// division rounds correctly, so float64(m)/10^k is the correctly
// rounded value, which is what strconv returns (it takes the same
// exact path for such input). Everything else goes to strconv.
func parseFloat(b []byte) (float64, error) {
	if v, ok := parseDecimal(b); ok {
		return v, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

func parseDecimal(b []byte) (float64, bool) {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	var m uint64
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	digits, frac := i-start, 0
	if digits == 0 {
		return 0, false
	}
	if i < len(b) {
		if b[i] != '.' {
			return 0, false
		}
		i++
		start = i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		frac = i - start
		if frac == 0 || i < len(b) {
			return 0, false
		}
	}
	if digits+frac > 15 {
		return 0, false
	}
	v := float64(m) / pow10f[frac]
	if b[0] == '-' {
		v = -v
	}
	return v, true
}

// parseInt is strconv.ParseInt(string(b), 10, 64) with a fast path
// for plain -?d{1,18}, which cannot overflow.
func parseInt(b []byte) (int64, error) {
	d := b
	if len(d) > 0 && d[0] == '-' {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range d {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	if len(d) < len(b) {
		v = -v
	}
	return v, nil
}

// parseBool is strconv.ParseBool(string(b)) with the writer's two
// spellings answered without a conversion.
func parseBool(b []byte) (bool, error) {
	switch string(b) {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return strconv.ParseBool(string(b))
}

// Package i128 implements 128-bit signed integer arithmetic.
//
// The paper's baseline SUM aggregate materializes results in 128-bit
// integers because worst-case domain derivation for SUM over large inputs
// overflows 64 bits (Section III-A). Go has no native int128, so this
// package provides the two-word representation the "full SUM" kernels use.
package i128

import (
	"fmt"
	"math/bits"
)

// Int is a 128-bit signed integer in two's complement, stored as a high
// signed word and a low unsigned word. The zero value is the number 0.
type Int struct {
	Hi int64  // upper 64 bits, including the sign
	Lo uint64 // lower 64 bits
}

// FromInt64 converts a 64-bit signed integer, sign-extending into Hi.
func FromInt64(v int64) Int {
	var hi int64
	if v < 0 {
		hi = -1
	}
	return Int{Hi: hi, Lo: uint64(v)}
}

// Add returns a+b with wrap-around two's-complement semantics.
func Add(a, b Int) Int {
	lo, carry := bits.Add64(a.Lo, b.Lo, 0)
	hi := uint64(a.Hi) + uint64(b.Hi) + carry
	return Int{Hi: int64(hi), Lo: lo}
}

// Sub returns a-b with wrap-around two's-complement semantics.
func Sub(a, b Int) Int {
	lo, borrow := bits.Sub64(a.Lo, b.Lo, 0)
	hi := uint64(a.Hi) - uint64(b.Hi) - borrow
	return Int{Hi: int64(hi), Lo: lo}
}

// AddInt64 returns a + v where v is sign-extended to 128 bits.
// This is the hot operation of the full-width SUM kernel.
func AddInt64(a Int, v int64) Int {
	var vh uint64
	if v < 0 {
		vh = ^uint64(0)
	}
	lo, carry := bits.Add64(a.Lo, uint64(v), 0)
	hi := uint64(a.Hi) + vh + carry
	return Int{Hi: int64(hi), Lo: lo}
}

// Neg returns -a.
func Neg(a Int) Int {
	return Sub(Int{}, a)
}

// Cmp returns -1, 0 or +1 when a is smaller, equal or larger than b.
func Cmp(a, b Int) int {
	if a.Hi != b.Hi {
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	}
	if a.Lo != b.Lo {
		if a.Lo < b.Lo {
			return -1
		}
		return 1
	}
	return 0
}

// Sign returns -1 for negative numbers, 0 for zero and +1 for positive.
func (x Int) Sign() int {
	if x.Hi < 0 {
		return -1
	}
	if x.Hi == 0 && x.Lo == 0 {
		return 0
	}
	return 1
}

// IsInt64 reports whether x fits in a signed 64-bit integer.
func (x Int) IsInt64() bool {
	// x fits iff Hi is the sign extension of Lo's top bit.
	return x.Hi == int64(x.Lo)>>63
}

// Int64 truncates x to 64 bits. Callers should check IsInt64 first when
// the value may not fit.
func (x Int) Int64() int64 { return int64(x.Lo) }

// MulInt64 returns a*b for two 64-bit signed inputs as a 128-bit result.
func MulInt64(a, b int64) Int {
	neg := false
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = uint64(-a)
		neg = !neg
	}
	if b < 0 {
		ub = uint64(-b)
		neg = !neg
	}
	hi, lo := bits.Mul64(ua, ub)
	r := Int{Hi: int64(hi), Lo: lo}
	if neg {
		r = Neg(r)
	}
	return r
}

// Shl returns x << n for 0 <= n < 128.
func Shl(x Int, n uint) Int {
	switch {
	case n == 0:
		return x
	case n < 64:
		return Int{Hi: x.Hi<<n | int64(x.Lo>>(64-n)), Lo: x.Lo << n}
	case n < 128:
		return Int{Hi: int64(x.Lo << (n - 64)), Lo: 0}
	default:
		return Int{}
	}
}

// Shr returns x >> n (arithmetic shift) for 0 <= n < 128.
func Shr(x Int, n uint) Int {
	switch {
	case n == 0:
		return x
	case n < 64:
		return Int{Hi: x.Hi >> n, Lo: x.Lo>>n | uint64(x.Hi)<<(64-n)}
	case n < 128:
		return Int{Hi: x.Hi >> 63, Lo: uint64(x.Hi >> (n - 64))}
	default:
		return Int{Hi: x.Hi >> 63, Lo: uint64(x.Hi >> 63)}
	}
}

// String renders x in decimal.
func (x Int) String() string {
	if x.Hi == 0 {
		return fmt.Sprintf("%d", x.Lo)
	}
	if x.Hi == -1 && int64(x.Lo) < 0 {
		return fmt.Sprintf("%d", int64(x.Lo))
	}
	neg := false
	v := x
	if v.Sign() < 0 {
		neg = true
		v = Neg(v)
	}
	// Repeated division by 1e19 (largest power of ten below 2^64).
	const chunk = 10_000_000_000_000_000_000
	var parts []uint64
	for v.Hi != 0 || v.Lo != 0 {
		var rem uint64
		v, rem = divmodSmall(v, chunk)
		parts = append(parts, rem)
	}
	if len(parts) == 0 {
		return "0"
	}
	s := fmt.Sprintf("%d", parts[len(parts)-1])
	for i := len(parts) - 2; i >= 0; i-- {
		s += fmt.Sprintf("%019d", parts[i])
	}
	if neg {
		s = "-" + s
	}
	return s
}

// divmodSmall divides a non-negative 128-bit value by a 64-bit divisor.
func divmodSmall(x Int, d uint64) (Int, uint64) {
	hiQ := uint64(x.Hi) / d
	hiR := uint64(x.Hi) % d
	loQ, rem := bits.Div64(hiR, x.Lo, d)
	return Int{Hi: int64(hiQ), Lo: loQ}, rem
}

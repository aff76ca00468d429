package rtl

// Evaluation semantics for the pure operations, shared by the constant
// folder, the simulator, and tests so there is a single source of truth.

// EvalBinary computes a binary operation on 64-bit values. ok is false for
// division by zero, which the caller must treat as a run-time trap (the
// folder simply declines to fold).
func EvalBinary(op Op, a, b int64, signed bool) (v int64, ok bool) {
	boolV := func(cond bool) (int64, bool) {
		if cond {
			return 1, true
		}
		return 0, true
	}
	switch op {
	case Add:
		return a + b, true
	case Sub:
		return a - b, true
	case Mul:
		return a * b, true
	case Div:
		if b == 0 {
			return 0, false
		}
		if signed {
			if a == -1<<63 && b == -1 {
				return a, true // wraps, as two's-complement hardware does
			}
			return a / b, true
		}
		return int64(uint64(a) / uint64(b)), true
	case Rem:
		if b == 0 {
			return 0, false
		}
		if signed {
			if a == -1<<63 && b == -1 {
				return 0, true
			}
			return a % b, true
		}
		return int64(uint64(a) % uint64(b)), true
	case And:
		return a & b, true
	case Or:
		return a | b, true
	case Xor:
		return a ^ b, true
	case Shl:
		return a << (uint64(b) & 63), true
	case Shr:
		if signed {
			return a >> (uint64(b) & 63), true
		}
		return int64(uint64(a) >> (uint64(b) & 63)), true
	case SetEQ:
		return boolV(a == b)
	case SetNE:
		return boolV(a != b)
	case SetLT:
		if signed {
			return boolV(a < b)
		}
		return boolV(uint64(a) < uint64(b))
	case SetLE:
		if signed {
			return boolV(a <= b)
		}
		return boolV(uint64(a) <= uint64(b))
	case SetGT:
		if signed {
			return boolV(a > b)
		}
		return boolV(uint64(a) > uint64(b))
	case SetGE:
		if signed {
			return boolV(a >= b)
		}
		return boolV(uint64(a) >= uint64(b))
	}
	return 0, false
}

// EvalExtract pulls the w bytes of a that start at byte offset off (mod 8)
// and extends them per signed.
func EvalExtract(a, off int64, w Width, signed bool) int64 {
	v := uint64(a) >> (uint(off&7) * 8)
	v &= w.Mask()
	if signed && w != W8 {
		shift := 64 - uint(w.Bits())
		return int64(v<<shift) >> shift
	}
	return int64(v)
}

// EvalInsert deposits the low w bytes of val into a at byte offset off
// (mod 8).
func EvalInsert(a, val, off int64, w Width) int64 {
	sh := uint(off&7) * 8
	mask := w.Mask() << sh
	return int64((uint64(a) &^ mask) | ((uint64(val) << sh) & mask))
}

// Extend sign- or zero-extends the low w bytes of v to 64 bits.
func Extend(v int64, w Width, signed bool) int64 {
	if w == W8 {
		return v
	}
	u := uint64(v) & w.Mask()
	if signed {
		shift := 64 - uint(w.Bits())
		return int64(u<<shift) >> shift
	}
	return int64(u)
}

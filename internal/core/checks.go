package core

import (
	"math/bits"
	"sort"

	"macc/internal/machine"
	"macc/internal/rtl"
)

// flatChecks emits run-time check instructions into a flat preheader and
// names their fresh registers. Check instructions are pure ALU ops (no
// control flow, no calls), so only the value fields transfer.
type flatChecks struct {
	f  *rtl.FlatFn
	bi int32
}

func (b flatChecks) NewReg() rtl.Reg { return b.f.NewReg() }

func (b flatChecks) Emit(in *rtl.Instr) {
	fi := rtl.MkInstr(in.Op)
	fi.Dst = in.Dst
	fi.A = in.A
	fi.B = in.B
	fi.Signed = in.Signed
	b.f.AppendInstr(b.bi, fi)
}

// baseRange summarizes the memory region one partition touches over the
// whole loop: its pointer's entry value, per-iteration step, and the
// displacement envelope of its references.
type baseRange struct {
	base     rtl.Reg
	step     int64
	minDisp  int64
	maxDisp  int64
	maxWidth int64
	lo, hi   rtl.Operand // emitted bounds
}

// emitChecks generates the run-time alias and alignment tests into the
// loop preheader (the paper's InsertAlignmentCheckInPreheader and
// InsertAliasingChecksInPreheader). It returns the combined "all checks
// pass" condition (Kind None when no checks were necessary), and the number
// of instructions, alias pairs, and alignment tests emitted.
//
// Alias checking compares the byte ranges two partitions sweep during the
// loop: with T an over-approximate trip count, partition X with entry
// pointer pX, step sX, and displacement envelope [minD, maxD+w) covers
// [pX+minD, pX+T*sX+maxD+w+|sX|) for forward motion (mirrored for
// backward). Two ranges are safe when one ends before the other begins.
// The over-approximation only ever sends execution to the safe loop.
func emitChecks(cb flatChecks, body []*rtl.Instr, m *machine.Machine,
	chunks []*chunk, info flatIV) (okCond rtl.Operand, nInstrs, nPairs, nAligns int, ok bool) {

	emit := func(in *rtl.Instr) {
		cb.Emit(in)
		nInstrs++
	}

	var acc rtl.Operand
	combine := func(cond rtl.Operand) {
		if acc.Kind == rtl.KindNone {
			acc = cond
			return
		}
		r := cb.NewReg()
		emit(rtl.BinI(rtl.And, r, acc, cond))
		acc = rtl.R(r)
	}

	// Alignment checks: ((base + minDisp) & (wide-1)) == 0, deduplicated.
	if m.MustAlign {
		type alignKey struct {
			base rtl.Reg
			wide rtl.Width
			res  int64
		}
		seen := make(map[alignKey]bool)
		for _, c := range chunks {
			res := ((c.minDisp % int64(c.wide)) + int64(c.wide)) % int64(c.wide)
			k := alignKey{c.part.base, c.wide, res}
			if seen[k] {
				continue
			}
			seen[k] = true
			addr := rtl.R(c.part.base)
			if c.minDisp != 0 {
				t := cb.NewReg()
				emit(rtl.BinI(rtl.Add, t, addr, rtl.C(c.minDisp)))
				addr = rtl.R(t)
			}
			masked := cb.NewReg()
			emit(rtl.BinI(rtl.And, masked, addr, rtl.C(int64(c.wide)-1)))
			okA := cb.NewReg()
			emit(rtl.BinI(rtl.SetEQ, okA, rtl.R(masked), rtl.C(0)))
			combine(rtl.R(okA))
			nAligns++
		}
	}

	// Alias pairs.
	type pairKey struct{ a, b rtl.Reg }
	pairs := make(map[pairKey]bool)
	for _, c := range chunks {
		for other := range c.needsAliasCheck {
			a, b := c.part.base, other
			if a > b {
				a, b = b, a
			}
			pairs[pairKey{a, b}] = true
		}
	}
	if len(pairs) > 0 {
		ctlIV, bound, haveCtl := info.ControlInfo()
		if !haveCtl {
			return rtl.Operand{}, nInstrs, 0, nAligns, false
		}
		ctlStep, isIV := info.IVStep(ctlIV)
		if !isIV {
			return rtl.Operand{}, nInstrs, 0, nAligns, false
		}
		// T = (bound - iv) / |step|  (signed; a non-positive result means
		// the loop will not run, and the guard prevents entry anyway).
		diff := cb.NewReg()
		if ctlStep > 0 {
			emit(rtl.BinI(rtl.Sub, diff, bound, rtl.R(ctlIV)))
		} else {
			emit(rtl.BinI(rtl.Sub, diff, rtl.R(ctlIV), bound))
		}
		abs := ctlStep
		if abs < 0 {
			abs = -abs
		}
		trips := cb.NewReg()
		if abs&(abs-1) == 0 {
			emit(rtl.SBinI(rtl.Shr, trips, rtl.R(diff), rtl.C(int64(bits.TrailingZeros64(uint64(abs))))))
		} else {
			emit(rtl.SBinI(rtl.Div, trips, rtl.R(diff), rtl.C(abs)))
		}

		ranges := make(map[rtl.Reg]*baseRange)
		boundsOf := func(base rtl.Reg) *baseRange {
			if r, ok := ranges[base]; ok {
				return r
			}
			r := rangeForBase(base, body, info)
			// delta = T * step
			var delta rtl.Operand
			if r.step != 0 {
				d := cb.NewReg()
				emit(rtl.BinI(rtl.Mul, d, rtl.R(trips), rtl.C(r.step)))
				delta = rtl.R(d)
			} else {
				delta = rtl.C(0)
			}
			// With T iterations the last access of a forward partition is
			// at base+(T-1)*step+maxDisp and touches maxWidth bytes; since
			// displacements stay below one step, base+T*step bounds it
			// exactly, keeping adjacent arrays distinguishable (the
			// paper's own check is the exact "b + n <= a" form).
			switch {
			case r.step > 0:
				lo := cb.NewReg()
				emit(rtl.BinI(rtl.Add, lo, rtl.R(base), rtl.C(r.minDisp)))
				extra := r.maxDisp + r.maxWidth - r.step
				if extra < 0 {
					extra = 0
				}
				h1 := cb.NewReg()
				emit(rtl.BinI(rtl.Add, h1, rtl.R(base), delta))
				hi := h1
				if extra != 0 {
					hi = cb.NewReg()
					emit(rtl.BinI(rtl.Add, hi, rtl.R(h1), rtl.C(extra)))
				}
				r.lo, r.hi = rtl.R(lo), rtl.R(hi)
			case r.step < 0:
				l1 := cb.NewReg()
				emit(rtl.BinI(rtl.Add, l1, rtl.R(base), delta))
				lo := cb.NewReg()
				emit(rtl.BinI(rtl.Add, lo, rtl.R(l1), rtl.C(r.minDisp)))
				hi := cb.NewReg()
				emit(rtl.BinI(rtl.Add, hi, rtl.R(base), rtl.C(r.maxDisp+r.maxWidth)))
				r.lo, r.hi = rtl.R(lo), rtl.R(hi)
			default:
				lo := cb.NewReg()
				emit(rtl.BinI(rtl.Add, lo, rtl.R(base), rtl.C(r.minDisp)))
				hi := cb.NewReg()
				emit(rtl.BinI(rtl.Add, hi, rtl.R(base), rtl.C(r.maxDisp+r.maxWidth)))
				r.lo, r.hi = rtl.R(lo), rtl.R(hi)
			}
			ranges[base] = r
			return r
		}

		var keys []pairKey
		for k := range pairs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].a != keys[j].a {
				return keys[i].a < keys[j].a
			}
			return keys[i].b < keys[j].b
		})
		for _, k := range keys {
			ra, rb := boundsOf(k.a), boundsOf(k.b)
			c1 := cb.NewReg()
			emit(rtl.SBinI(rtl.SetLE, c1, ra.hi, rb.lo))
			c2 := cb.NewReg()
			emit(rtl.SBinI(rtl.SetLE, c2, rb.hi, ra.lo))
			okp := cb.NewReg()
			emit(rtl.BinI(rtl.Or, okp, rtl.R(c1), rtl.R(c2)))
			combine(rtl.R(okp))
			nPairs++
		}
	}
	return acc, nInstrs, nPairs, nAligns, true
}

// rangeForBase computes the displacement envelope of every reference off
// base inside the body, and its per-iteration step.
func rangeForBase(base rtl.Reg, body []*rtl.Instr, info flatIV) *baseRange {
	r := &baseRange{base: base}
	if step, isIV := info.IVStep(base); isIV {
		r.step = step
	}
	first := true
	for _, in := range body {
		if !in.IsMem() {
			continue
		}
		if b, ok := in.A.IsReg(); !ok || b != base {
			continue
		}
		if first {
			r.minDisp, r.maxDisp = in.Disp, in.Disp
			first = false
		}
		if in.Disp < r.minDisp {
			r.minDisp = in.Disp
		}
		if in.Disp > r.maxDisp {
			r.maxDisp = in.Disp
		}
		if int64(in.Width) > r.maxWidth {
			r.maxWidth = int64(in.Width)
		}
	}
	if r.maxWidth == 0 {
		r.maxWidth = 8
	}
	return r
}

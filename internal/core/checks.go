package core

import (
	"math/bits"
	"sort"

	"macc/internal/iv"
	"macc/internal/machine"
	"macc/internal/rtl"
)

// emitChecks generates the run-time alias and alignment tests into the
// loop preheader pre (the paper's InsertAlignmentCheckInPreheader and
// InsertAliasingChecksInPreheader). It returns the combined "all checks
// pass" condition (Kind None when no checks were necessary), and the number
// of instructions, alias pairs, and alignment tests emitted.
//
// Alias checking compares the byte ranges two partitions sweep during the
// loop: with T an over-approximate trip count, partition X with entry
// pointer pX, step sX, and displacement envelope [minD, maxD+w) covers
// [pX+minD, pX+T*sX+maxD+w+|sX|) for forward motion (mirrored for
// backward). Two ranges are safe when one ends before the other begins.
// The over-approximation only ever sends execution to the safe loop. The
// trip count comes from info's loop-control test; every base in an alias
// pair has a partition in parts (IsHazard rejects any other).
//
// Precondition: a chunk needs alias checks only when info.Control is set,
// because filterChunks drops every such chunk otherwise, and the control IV
// is then a basic IV, the only kind iv's findControl accepts. So the checks
// can always be built.
func emitChecks(f *rtl.FlatFn, pre int32, m *machine.Machine, chunks []*chunk,
	parts map[rtl.Reg]*partition, info *iv.FlatInfo) (okCond rtl.Operand, nInstrs, nPairs, nAligns int) {

	// Check instructions are pure ALU ops: no control flow, no calls.
	emit := func(op rtl.Op, dst rtl.Reg, a, b rtl.Operand) {
		f.AppendInstr(pre, rtl.FlatOp(op, dst, a, b))
		nInstrs++
	}
	emitSigned := func(op rtl.Op, dst rtl.Reg, a, b rtl.Operand) {
		in := rtl.FlatOp(op, dst, a, b)
		in.Signed = true
		f.AppendInstr(pre, in)
		nInstrs++
	}

	var acc rtl.Operand
	combine := func(cond rtl.Operand) {
		if acc.Kind == rtl.KindNone {
			acc = cond
			return
		}
		r := f.NewReg()
		emit(rtl.And, r, acc, cond)
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
				t := f.NewReg()
				emit(rtl.Add, t, addr, rtl.C(c.minDisp))
				addr = rtl.R(t)
			}
			masked := f.NewReg()
			emit(rtl.And, masked, addr, rtl.C(int64(c.wide)-1))
			okA := f.NewReg()
			emit(rtl.SetEQ, okA, rtl.R(masked), rtl.C(0))
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
		ctl := info.Control
		ctlStep := info.BasicIVs[ctl.IV].Step
		// T = (bound - iv) / |step|  (signed; a non-positive result means
		// the loop will not run, and the guard prevents entry anyway).
		diff := f.NewReg()
		if ctlStep > 0 {
			emit(rtl.Sub, diff, ctl.Bound, rtl.R(ctl.IV))
		} else {
			emit(rtl.Sub, diff, rtl.R(ctl.IV), ctl.Bound)
		}
		abs := ctlStep
		if abs < 0 {
			abs = -abs
		}
		trips := f.NewReg()
		if abs&(abs-1) == 0 {
			emitSigned(rtl.Shr, trips, rtl.R(diff), rtl.C(int64(bits.TrailingZeros64(uint64(abs)))))
		} else {
			emitSigned(rtl.Div, trips, rtl.R(diff), rtl.C(abs))
		}

		// bounds holds each partition's emitted [lo, hi) byte range.
		type span struct{ lo, hi rtl.Operand }
		bounds := make(map[rtl.Reg]span)
		boundsOf := func(base rtl.Reg) span {
			if s, ok := bounds[base]; ok {
				return s
			}
			p := parts[base]
			// delta = T * step
			var delta rtl.Operand
			if p.step != 0 {
				d := f.NewReg()
				emit(rtl.Mul, d, rtl.R(trips), rtl.C(p.step))
				delta = rtl.R(d)
			} else {
				delta = rtl.C(0)
			}
			// With T iterations the last access of a forward partition is
			// at base+(T-1)*step+maxDisp and touches maxWidth bytes; since
			// displacements stay below one step, base+T*step bounds it
			// exactly, keeping adjacent arrays distinguishable (the
			// paper's own check is the exact "b + n <= a" form).
			var s span
			switch {
			case p.step > 0:
				lo := f.NewReg()
				emit(rtl.Add, lo, rtl.R(base), rtl.C(p.minDisp))
				extra := max(p.maxDisp+p.maxWidth-p.step, 0)
				h1 := f.NewReg()
				emit(rtl.Add, h1, rtl.R(base), delta)
				hi := h1
				if extra != 0 {
					hi = f.NewReg()
					emit(rtl.Add, hi, rtl.R(h1), rtl.C(extra))
				}
				s = span{rtl.R(lo), rtl.R(hi)}
			case p.step < 0:
				l1 := f.NewReg()
				emit(rtl.Add, l1, rtl.R(base), delta)
				lo := f.NewReg()
				emit(rtl.Add, lo, rtl.R(l1), rtl.C(p.minDisp))
				hi := f.NewReg()
				emit(rtl.Add, hi, rtl.R(base), rtl.C(p.maxDisp+p.maxWidth))
				s = span{rtl.R(lo), rtl.R(hi)}
			default:
				lo := f.NewReg()
				emit(rtl.Add, lo, rtl.R(base), rtl.C(p.minDisp))
				hi := f.NewReg()
				emit(rtl.Add, hi, rtl.R(base), rtl.C(p.maxDisp+p.maxWidth))
				s = span{rtl.R(lo), rtl.R(hi)}
			}
			bounds[base] = s
			return s
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
			c1 := f.NewReg()
			emitSigned(rtl.SetLE, c1, ra.hi, rb.lo)
			c2 := f.NewReg()
			emitSigned(rtl.SetLE, c2, rb.hi, ra.lo)
			okp := f.NewReg()
			emit(rtl.Or, okp, rtl.R(c1), rtl.R(c2))
			combine(rtl.R(okp))
			nPairs++
		}
	}
	return acc, nInstrs, nPairs, nAligns
}

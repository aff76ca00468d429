package opt

import (
	"macc/internal/cfg"
	"macc/internal/rtl"
)

// FlatHoistInvariants performs loop-invariant code motion for loop l of
// function fi: pure instructions whose operands are loop invariant and that
// are the sole definition of their register move to the preheader, in the
// order they are met. Divisions are hoisted only when the divisor is a
// non-zero constant, since hoisting may execute them speculatively. The
// loop must already have a preheader.
func FlatHoistInvariants(fp *rtl.FlatProgram, fi int, l *cfg.FlatLoop) bool {
	if l.Preheader < 0 {
		return false
	}
	f := &fp.Fns[fi]
	defsInLoop := make(map[rtl.Reg]int)
	for _, bi := range l.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if d, ok := f.Def(i); ok {
				defsInLoop[d]++
			}
		}
	}
	hoistable := func(i int32) bool {
		switch op := f.Op[i]; op {
		case rtl.Mov, rtl.Neg, rtl.Not, rtl.Extract, rtl.Insert:
		case rtl.Div, rtl.Rem:
			if c, ok := f.B[i].IsConst(); !ok || c == 0 {
				return false
			}
		default:
			if !op.IsBinary() {
				return false
			}
		}
		var buf [3]rtl.Reg // the opcodes above read at most three
		for _, r := range f.SrcRegs(i, buf[:0]) {
			if defsInLoop[r] != 0 {
				return false
			}
		}
		return true
	}
	changed := false
	for {
		// One sweep marks every hoistable instruction; the loop body is
		// compacted once and the movers land in the preheader together.
		var moved []rtl.FlatInstr
		var kill []bool
		for _, bi := range l.Blocks {
			b := &f.Blocks[bi]
			for i := b.InstrStart; i < b.InstrEnd; i++ {
				if d, ok := f.Def(i); ok && defsInLoop[d] == 1 && hoistable(i) {
					if kill == nil {
						kill = make([]bool, len(f.Op))
					}
					kill[i] = true
					moved = append(moved, f.Instr(i))
					defsInLoop[d] = 0
				}
			}
		}
		if len(moved) == 0 {
			return changed
		}
		f.Compact(kill)
		f.AppendInstr(l.Preheader, moved...)
		changed = true
	}
}

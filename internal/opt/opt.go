// Package opt implements the machine-independent clean-up optimizations the
// vpo back end applies around memory access coalescing: constant folding and
// propagation, copy propagation, algebraic simplification, local common
// subexpression elimination, dead code elimination, and control-flow
// tidying. They matter here because the coalescer's offset and induction
// analyses expect addresses in a canonical base+displacement form that these
// passes produce.
package opt

import (
	"macc/internal/cfg"
	"macc/internal/dataflow"
	"macc/internal/rtl"
)

// Clean runs the full clean-up pipeline to a fixpoint (bounded) and reports
// whether anything changed.
func Clean(f *rtl.Fn) bool {
	changedEver := false
	for i := 0; i < 8; i++ {
		changed := false
		changed = RemoveUnreachable(f) || changed
		changed = FoldConstants(f) || changed
		changed = PropagateLocal(f) || changed
		changed = PropagateImmutable(f) || changed
		changed = LocalCSE(f) || changed
		changed = CollapseMovChains(f) || changed
		changed = Peephole(f) || changed
		changed = DeadCodeElim(f) || changed
		changed = GlobalDCE(f) || changed
		changed = EliminateDeadIVs(f) || changed
		if !changed {
			break
		}
		changedEver = true
	}
	return changedEver
}

// RemoveUnreachable drops blocks that cannot be reached from the entry.
func RemoveUnreachable(f *rtl.Fn) bool {
	g := cfg.New(f)
	var kept []*rtl.Block
	for _, b := range f.Blocks {
		if g.Reachable(b) {
			kept = append(kept, b)
		}
	}
	if len(kept) == len(f.Blocks) {
		return false
	}
	f.Blocks = kept
	return true
}

// FoldConstants evaluates instructions whose operands are constants and
// simplifies algebraic identities (x+0, x*1, x*0, x<<0, branch-on-constant).
func FoldConstants(f *rtl.Fn) bool {
	changed := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if foldInstr(in) {
				changed = true
			}
		}
	}
	return changed
}

func foldInstr(in *rtl.Instr) bool {
	a, aok := in.A.IsConst()
	bv, bok := in.B.IsConst()
	set := func(v int64) bool {
		*in = rtl.Instr{Op: rtl.Mov, Dst: in.Dst, A: rtl.C(v)}
		return true
	}
	switch in.Op {
	case rtl.Neg:
		if aok {
			return set(-a)
		}
	case rtl.Not:
		if aok {
			return set(^a)
		}
	case rtl.Branch:
		if aok {
			t := in.Target
			if a == 0 {
				t = in.Else
			}
			*in = rtl.Instr{Op: rtl.Jump, Target: t}
			return true
		}
		if in.Target == in.Else {
			*in = rtl.Instr{Op: rtl.Jump, Target: in.Target}
			return true
		}
	case rtl.Extract:
		if aok && bok {
			return set(rtl.EvalExtract(a, bv, in.Width, in.Signed))
		}
	case rtl.Insert:
		if cv, cok := in.C.IsConst(); aok && bok && cok {
			return set(rtl.EvalInsert(a, bv, cv, in.Width))
		}
	}
	if !in.Op.IsBinary() {
		return false
	}
	if aok && bok {
		if v, ok := rtl.EvalBinary(in.Op, a, bv, in.Signed); ok {
			return set(v)
		}
		return false
	}
	// Algebraic identities with one constant side.
	isMov := func(o rtl.Operand) bool {
		*in = rtl.Instr{Op: rtl.Mov, Dst: in.Dst, A: o}
		return true
	}
	switch in.Op {
	case rtl.Add:
		if aok && a == 0 {
			return isMov(in.B)
		}
		if bok && bv == 0 {
			return isMov(in.A)
		}
	case rtl.Sub:
		if bok && bv == 0 {
			return isMov(in.A)
		}
		if ra, okA := in.A.IsReg(); okA {
			if rb, okB := in.B.IsReg(); okB && ra == rb {
				return set(0)
			}
		}
	case rtl.Mul:
		if (aok && a == 0) || (bok && bv == 0) {
			return set(0)
		}
		if aok && a == 1 {
			return isMov(in.B)
		}
		if bok && bv == 1 {
			return isMov(in.A)
		}
	case rtl.Shl, rtl.Shr:
		if bok && bv == 0 {
			return isMov(in.A)
		}
	case rtl.And:
		if (aok && a == 0) || (bok && bv == 0) {
			return set(0)
		}
		if aok && a == -1 {
			return isMov(in.B)
		}
		if bok && bv == -1 {
			return isMov(in.A)
		}
	case rtl.Or, rtl.Xor:
		if aok && a == 0 {
			return isMov(in.B)
		}
		if bok && bv == 0 {
			return isMov(in.A)
		}
	}
	return false
}

// PropagateLocal forwards constants and copies within each block, tracking
// kills precisely, so chains like "t=2; u=t; v=a+u" collapse without any
// global analysis.
func PropagateLocal(f *rtl.Fn) bool {
	changed := false
	for _, b := range f.Blocks {
		val := make(map[rtl.Reg]rtl.Operand) // reg -> known const or copy source
		for _, in := range b.Instrs {
			for _, o := range in.SrcOperands() {
				if r, ok := o.IsReg(); ok {
					if v, ok := val[r]; ok {
						*o = v
						changed = true
					}
				}
			}
			if d, ok := in.Def(); ok {
				// Kill anything that referenced the redefined register.
				delete(val, d)
				for r, v := range val {
					if vr, ok := v.IsReg(); ok && vr == d {
						delete(val, r)
					}
				}
				if in.Op == rtl.Mov {
					if _, isC := in.A.IsConst(); isC {
						val[d] = in.A
					} else if sr, ok := in.A.IsReg(); ok && sr != d {
						val[d] = in.A
						_ = sr
					}
				}
			}
		}
	}
	return changed
}

// PropagateImmutable performs global constant/copy propagation restricted to
// registers with a single definition: if r is defined exactly once as a
// constant, or as a copy of another immutable register, its uses dominated
// by the definition are rewritten.
func PropagateImmutable(f *rtl.Fn) bool {
	du := dataflow.ComputeDefUse(f)
	g := cfg.New(f)
	changed := false
	for _, b := range f.Blocks {
		if !g.Reachable(b) {
			continue
		}
		for idx, in := range b.Instrs {
			for _, o := range in.SrcOperands() {
				r, ok := o.IsReg()
				if !ok {
					continue
				}
				site, ok := du.SingleDef(r)
				if !ok || site.Instr.Op != rtl.Mov {
					continue
				}
				var repl rtl.Operand
				if c, isC := site.Instr.A.IsConst(); isC {
					repl = rtl.C(c)
				} else if sr, isR := site.Instr.A.IsReg(); isR && du.Immutable(sr) {
					repl = rtl.R(sr)
				} else {
					continue
				}
				if !dominatesUse(g, site, b, idx) {
					continue
				}
				*o = repl
				changed = true
			}
		}
	}
	return changed
}

func dominatesUse(g *cfg.Graph, site dataflow.DefSite, useBlock *rtl.Block, useIdx int) bool {
	if site.Block == useBlock {
		return site.Index < useIdx
	}
	return g.Dominates(site.Block, useBlock)
}

// LocalCSE removes redundant pure computations within a block using value
// numbering keyed on (op, operands, width, signedness). Loads are reused
// until a store or call intervenes.
func LocalCSE(f *rtl.Fn) bool {
	type key struct {
		op      rtl.Op
		a, b, c rtl.Operand
		w       rtl.Width
		signed  bool
		disp    int64
	}
	mentions := func(k key, d rtl.Reg) bool {
		for _, o := range [...]rtl.Operand{k.a, k.b, k.c} {
			if r, ok := o.IsReg(); ok && r == d {
				return true
			}
		}
		return false
	}
	changed := false
	for _, b := range f.Blocks {
		avail := make(map[key]rtl.Reg)
		loadKeys := make(map[key]bool)
		kill := func(d rtl.Reg) {
			for k, r := range avail {
				if r == d || mentions(k, d) {
					delete(avail, k)
					delete(loadKeys, k)
				}
			}
		}
		for idx := 0; idx < len(b.Instrs); idx++ {
			in := b.Instrs[idx]
			switch in.Op {
			case rtl.Store, rtl.Call:
				// Conservatively kill remembered loads.
				for k := range loadKeys {
					delete(avail, k)
					delete(loadKeys, k)
				}
			}
			d, hasDef := in.Def()
			if !hasDef {
				continue
			}
			pure := in.Op.IsBinary() || in.Op == rtl.Neg || in.Op == rtl.Not ||
				in.Op == rtl.Extract || in.Op == rtl.Insert || in.Op == rtl.Load
			if !pure {
				kill(d)
				continue
			}
			k := key{op: in.Op, a: in.A, b: in.B, c: in.C, w: in.Width, signed: in.Signed, disp: in.Disp}
			if prev, ok := avail[k]; ok && prev != d {
				*in = rtl.Instr{Op: rtl.Mov, Dst: d, A: rtl.R(prev)}
				kill(d)
				changed = true
				continue
			}
			kill(d)
			// Self-referential defs (r = r + 1) are not available afterwards.
			if !in.UsesReg(d) {
				avail[k] = d
				if in.Op == rtl.Load {
					loadKeys[k] = true
				}
			}
		}
	}
	return changed
}

// DeadCodeElim removes pure instructions whose results are never used,
// iterating so chains of dead temporaries disappear.
func DeadCodeElim(f *rtl.Fn) bool {
	changedEver := false
	for {
		use := make([]int, f.NumRegs())
		var regs []rtl.Reg
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				regs = in.Uses(regs[:0])
				for _, r := range regs {
					use[r]++
				}
			}
		}
		changed := false
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if d, ok := in.Def(); ok && use[d] == 0 && sideEffectFree(in) {
					changed = true
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
		if !changed {
			return changedEver
		}
		changedEver = true
	}
}

func sideEffectFree(in *rtl.Instr) bool {
	switch in.Op {
	case rtl.Store, rtl.Call, rtl.Jump, rtl.Branch, rtl.Ret:
		return false
	}
	return true
}

package dataflow

import (
	"macc/internal/cfg"
	"macc/internal/rtl"
)

// FlatDefSite locates one definition of a register in a flat function:
// the owning block index, the block-relative position, and the absolute
// instruction index.
type FlatDefSite struct {
	Block int32
	Index int32
	Instr int32
}

// FlatDefUse summarises definition and use counts across a flat function,
// tabulated in one dense-array scan with no per-instruction allocation. It
// treats function parameters as implicit definitions at entry.
type FlatDefUse struct {
	defCount []int32
	useCount []int32
	single   []FlatDefSite // valid where defCount==1
	isParam  []bool
}

// ComputeFlatDefUse scans the function once and tabulates, for each
// register, how many instructions define it, how many operand slots read
// it, and (for single-definition registers) where that definition lives.
func ComputeFlatDefUse(f *rtl.FlatFn) *FlatDefUse {
	n := f.NumRegs()
	du := &FlatDefUse{
		defCount: make([]int32, n),
		useCount: make([]int32, n),
		single:   make([]FlatDefSite, n),
		isParam:  make([]bool, n),
	}
	for _, p := range f.Params {
		du.isParam[p] = true
		du.defCount[p]++
	}
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			f.SrcSlots(i, func(o *rtl.Operand) {
				if o.Kind == rtl.KindReg {
					du.useCount[o.Reg]++
				}
			})
			if d, ok := f.Def(i); ok {
				du.defCount[d]++
				du.single[d] = FlatDefSite{Block: int32(bi), Index: i - b.InstrStart, Instr: i}
			}
		}
	}
	return du
}

// DefCount returns how many definitions register r has (parameters count
// as one definition).
func (du *FlatDefUse) DefCount(r rtl.Reg) int { return int(du.defCount[r]) }

// UseCount returns how many operand slots read register r.
func (du *FlatDefUse) UseCount(r rtl.Reg) int { return int(du.useCount[r]) }

// IsParam reports whether r is a function parameter.
func (du *FlatDefUse) IsParam(r rtl.Reg) bool { return du.isParam[r] }

// SingleDef returns the lone defining instruction of r, if r has exactly
// one definition and is not a parameter.
func (du *FlatDefUse) SingleDef(r rtl.Reg) (FlatDefSite, bool) {
	if du.isParam[r] || du.defCount[r] != 1 {
		return FlatDefSite{}, false
	}
	return du.single[r], true
}

// Immutable reports whether r is never redefined after its initial value:
// either a parameter with no further definitions, or a register with
// exactly one definition. Such registers can be propagated without kill
// analysis.
func (du *FlatDefUse) Immutable(r rtl.Reg) bool { return du.defCount[r] == 1 }

// FlatLiveness holds per-block live-in/live-out register sets for a flat
// function, indexed by block.
type FlatLiveness struct {
	liveIn  []BitSet
	liveOut []BitSet
}

// ComputeFlatLiveness runs iterative backward liveness over the function,
// visiting blocks in reverse RPO for fast convergence.
func ComputeFlatLiveness(g *cfg.FlatGraph) *FlatLiveness {
	f := g.F
	n := f.NumRegs()
	nb := len(f.Blocks)
	lv := &FlatLiveness{
		liveIn:  make([]BitSet, nb),
		liveOut: make([]BitSet, nb),
	}
	use := make([]BitSet, nb)
	def := make([]BitSet, nb)
	for bi := range f.Blocks {
		u, d := NewBitSet(n), NewBitSet(n)
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			f.SrcSlots(i, func(o *rtl.Operand) {
				if o.Kind == rtl.KindReg && !d.Has(int(o.Reg)) {
					u.Set(int(o.Reg))
				}
			})
			if dr, ok := f.Def(i); ok {
				d.Set(int(dr))
			}
		}
		use[bi], def[bi] = u, d
		lv.liveIn[bi] = NewBitSet(n)
		lv.liveOut[bi] = NewBitSet(n)
	}
	changed := true
	tmp := NewBitSet(n)
	var sbuf [2]int32
	for changed {
		changed = false
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.RPO[i]
			out := lv.liveOut[b]
			for _, s := range cfg.FlatSuccs(f, b, sbuf[:0]) {
				if out.OrInto(lv.liveIn[s]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			tmp.Copy(out)
			def[b].ForEach(func(i int) { tmp.Clear(i) })
			tmp.OrInto(use[b])
			if lv.liveIn[b].OrInto(tmp) {
				changed = true
			}
		}
	}
	return lv
}

// LiveOutSet returns the live-out set of block bi (shared, do not mutate).
func (lv *FlatLiveness) LiveOutSet(bi int32) BitSet { return lv.liveOut[bi] }

// LiveInSet returns the live-in set of block bi (shared, do not mutate).
func (lv *FlatLiveness) LiveInSet(bi int32) BitSet { return lv.liveIn[bi] }

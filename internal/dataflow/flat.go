package dataflow

import (
	"macc/internal/cfg"
	"macc/internal/reuse"
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
	du := &FlatDefUse{}
	ComputeFlatDefUseInto(f, du)
	return du
}

// ComputeFlatDefUseInto is ComputeFlatDefUse writing into du, reusing its
// tables' storage; whatever du held before is overwritten.
func ComputeFlatDefUseInto(f *rtl.FlatFn, du *FlatDefUse) {
	n := f.NumRegs()
	du.defCount = reuse.Zeroed(du.defCount, n)
	du.useCount = reuse.Zeroed(du.useCount, n)
	du.single = reuse.Zeroed(du.single, n)
	du.isParam = reuse.Zeroed(du.isParam, n)
	for _, p := range f.Params {
		du.isParam[p] = true
		du.defCount[p]++
	}
	var buf [8]rtl.Reg
	regs := buf[:0]
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			regs = f.SrcRegs(i, regs[:0])
			for _, r := range regs {
				du.useCount[r]++
			}
			if d, ok := f.Def(i); ok {
				du.defCount[d]++
				du.single[d] = FlatDefSite{Block: int32(bi), Index: i - b.InstrStart, Instr: i}
			}
		}
	}
}

// DefCount returns how many definitions register r has (parameters count
// as one definition).
func (du *FlatDefUse) DefCount(r rtl.Reg) int { return int(du.defCount[r]) }

// UseCount returns how many operand slots read register r.
func (du *FlatDefUse) UseCount(r rtl.Reg) int { return int(du.useCount[r]) }

// UseCounts returns every register's use count, indexed by register
// (shared, do not mutate).
func (du *FlatDefUse) UseCounts() []int32 { return du.useCount }

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
// function, indexed by block. Every set, the per-block use/def sets the
// solver needs included, is carved from one word buffer.
type FlatLiveness struct {
	liveIn  []BitSet
	liveOut []BitSet
	use     []BitSet
	def     []BitSet
	words   []uint64
}

// ComputeFlatLiveness runs iterative backward liveness over the function,
// visiting blocks in reverse RPO for fast convergence.
func ComputeFlatLiveness(g *cfg.FlatGraph) *FlatLiveness {
	lv := &FlatLiveness{}
	ComputeFlatLivenessInto(g, lv)
	return lv
}

// ComputeFlatLivenessInto is ComputeFlatLiveness writing into lv, reusing
// its storage; whatever lv held before is overwritten.
func ComputeFlatLivenessInto(g *cfg.FlatGraph, lv *FlatLiveness) {
	f := g.F
	nb := len(f.Blocks)
	w := (f.NumRegs() + 63) / 64
	lv.words = reuse.Zeroed(lv.words, (4*nb+1)*w)
	carve := func(sets []BitSet, at int) []BitSet {
		sets = reuse.Zeroed(sets, nb)
		for bi := range sets {
			off := (at*nb + bi) * w
			sets[bi] = lv.words[off : off+w : off+w]
		}
		return sets
	}
	lv.liveIn = carve(lv.liveIn, 0)
	lv.liveOut = carve(lv.liveOut, 1)
	lv.use = carve(lv.use, 2)
	lv.def = carve(lv.def, 3)
	tmp := BitSet(lv.words[4*nb*w:])
	var buf [8]rtl.Reg
	regs := buf[:0]
	for bi := range f.Blocks {
		u, d := lv.use[bi], lv.def[bi]
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			regs = f.SrcRegs(i, regs[:0])
			for _, r := range regs {
				if !d.Has(int(r)) {
					u.Set(int(r))
				}
			}
			if dr, ok := f.Def(i); ok {
				d.Set(int(dr))
			}
		}
	}
	changed := true
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
			use, def := lv.use[b], lv.def[b]
			for wi := range tmp {
				tmp[wi] = use[wi] | out[wi]&^def[wi]
			}
			if lv.liveIn[b].OrInto(tmp) {
				changed = true
			}
		}
	}
}

// LiveOutSet returns the live-out set of block bi (shared, do not mutate).
func (lv *FlatLiveness) LiveOutSet(bi int32) BitSet { return lv.liveOut[bi] }

// LiveInSet returns the live-in set of block bi (shared, do not mutate).
func (lv *FlatLiveness) LiveInSet(bi int32) BitSet { return lv.liveIn[bi] }

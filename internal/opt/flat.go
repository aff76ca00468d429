package opt

import (
	"math/bits"
	"sync"

	"macc/internal/cfg"
	"macc/internal/dataflow"
	"macc/internal/reuse"
	"macc/internal/rtl"
)

// Every pass here works on FlatFn's dense arrays through the flat editing
// layer: in-place SetInstr rewrites for per-instruction transforms, and kill
// marks plus one Compact sweep for deletions.

// FlatClean runs the full clean-up pipeline to a fixpoint (bounded) and reports
// whether anything changed.
func FlatClean(fp *rtl.FlatProgram, fi int) bool {
	return withCleaner(fp, fi, (*cleaner).clean)
}

// cleanLap is FlatClean's sub-passes in the order each lap runs them.
var cleanLap = [...]func(*cleaner) bool{
	(*cleaner).removeUnreachable,
	(*cleaner).foldConstants,
	(*cleaner).propagateLocal,
	(*cleaner).propagateImmutable,
	(*cleaner).localCSE,
	(*cleaner).collapseMovChains,
	(*cleaner).peephole,
	(*cleaner).deadCodeElim,
	(*cleaner).globalDCE,
	(*cleaner).eliminateDeadIVs,
}

// clean runs the lap's sub-passes in turn, for at most 8 laps. It stops
// once a full lap's worth of consecutive sub-passes, one of each, reported
// no change: a sub-pass that reports none leaves the function as it was,
// so each has then seen the current function and would leave it alone
// again. The result is the one that running whole laps until one changes
// nothing gives, without that lap's tail. For the same reason the cached
// analyses stay valid across sub-passes that report no change.
func (c *cleaner) clean() bool {
	changedEver := false
	idle := 0 // sub-passes run since the last one that changed something
	for run := 0; run < 8*len(cleanLap) && idle < len(cleanLap); run++ {
		if cleanLap[run%len(cleanLap)](c) {
			changedEver = true
			c.dirty()
			idle = 0
		} else {
			idle++
		}
	}
	return changedEver
}

// cleaner runs FlatClean's sub-passes over one function. It owns every
// analysis and scratch buffer they use. Cleaners come from cleanerPool, so
// that storage outlives the call: FlatClean and the exported Flat*
// sub-passes each draw one, and a compile's many calls reuse what earlier
// calls grew.
type cleaner struct {
	fp *rtl.FlatProgram
	fi int
	f  *rtl.FlatFn

	// g is the function's CFG (nil until built) and edges each block's
	// ordered successors (-1 pads a missing one) as they were when g was
	// built; g is reused while every block's successors still match. Every
	// build rebuilds gs, the graph's storage, in place.
	g     *cfg.FlatGraph
	gs    cfg.FlatGraph
	edges [][2]int32

	// duFresh and edgesFresh are set while du, and the edges g was checked
	// against, describe the function; dirty clears both.
	duFresh, edgesFresh bool

	du   dataflow.FlatDefUse // see defUse
	lv   dataflow.FlatLiveness
	live dataflow.BitSet

	mask     []bool  // kill or keep marks, one per instruction or block
	uses     []int32 // per-register use counts
	selfOnly []bool
	regs     []rtl.Reg // SrcRegs scratch

	// Per-block register state. propagateLocal's val[r] is r's known
	// constant or copy source where has[r]; collapseMovChains' defAt[r] is
	// the index of r's last definition in the block (-1 none). touched lists
	// every r with an entry set, and is empty between blocks.
	val     []rtl.Operand
	has     []bool
	defAt   []int32
	touched []rtl.Reg

	cse cseTable
}

// cleanerPool recycles cleaners between calls.
var cleanerPool = sync.Pool{New: func() any { return new(cleaner) }}

// withCleaner runs pass over function fi of fp on a pooled cleaner. The
// cleaner goes back to the pool with no program, function or CFG in it, so
// the next call can neither see nor retain them. Only a pass that returns
// puts its cleaner back: one abandoned by a panic may hold half-reset
// tables, so it is left to the collector.
func withCleaner(fp *rtl.FlatProgram, fi int, pass func(*cleaner) bool) bool {
	c := cleanerPool.Get().(*cleaner)
	c.fp, c.fi, c.f = fp, fi, &fp.Fns[fi]
	c.dirty()
	changed := pass(c)
	c.fp, c.f, c.g = nil, nil, nil
	c.gs.P, c.gs.F = nil, nil
	cleanerPool.Put(c)
	return changed
}

// dirty records a change to the function, after which defUse and graph
// check their analyses again. clean calls it whenever a sub-pass reports a
// change, and a sub-pass that reads an analysis after changing the
// function itself calls it first.
func (c *cleaner) dirty() { c.duFresh, c.edgesFresh = false, false }

// defUse returns the function's def-use, built again only after a change.
func (c *cleaner) defUse() *dataflow.FlatDefUse {
	if !c.duFresh {
		dataflow.ComputeFlatDefUseInto(c.f, &c.du)
		c.duFresh = true
	}
	return &c.du
}

// marks returns the cleaner's mark buffer, cleared, with n entries.
func (c *cleaner) marks(n int) []bool {
	c.mask = reuse.Zeroed(c.mask, n)
	return c.mask
}

// graph returns the function's CFG, rebuilding it only when some block's
// ordered successor list differs from the one recorded at the last build.
// The check reads the terminators themselves, and is skipped while nothing
// has changed since the last one.
func (c *cleaner) graph() *cfg.FlatGraph {
	if c.g != nil && (c.edgesFresh || c.edgesUnchanged()) {
		c.edgesFresh = true
		return c.g
	}
	c.g = cfg.NewFlatInto(c.fp, c.fi, &c.gs)
	c.edges = c.edges[:0]
	for bi := range c.f.Blocks {
		c.edges = append(c.edges, c.succs(int32(bi)))
	}
	c.edgesFresh = true
	return c.g
}

func (c *cleaner) edgesUnchanged() bool {
	if len(c.edges) != len(c.f.Blocks) {
		return false
	}
	for bi, e := range c.edges {
		if c.succs(int32(bi)) != e {
			return false
		}
	}
	return true
}

// succs returns block bi's successors in cfg.FlatSuccs order, -1 padding a
// missing one.
func (c *cleaner) succs(bi int32) [2]int32 {
	e := [2]int32{-1, -1}
	var buf [2]int32
	copy(e[:], cfg.FlatSuccs(c.f, bi, buf[:0]))
	return e
}

// FlatRemoveUnreachable drops blocks that cannot be reached from the entry.
func FlatRemoveUnreachable(fp *rtl.FlatProgram, fi int) bool {
	return withCleaner(fp, fi, (*cleaner).removeUnreachable)
}

func (c *cleaner) removeUnreachable() bool {
	g := c.graph()
	if len(g.RPO) == len(c.f.Blocks) {
		return false
	}
	keep := c.marks(len(c.f.Blocks))
	for _, bi := range g.RPO {
		keep[bi] = true
	}
	c.f.RemoveBlocks(keep)
	return true
}

// FlatFoldConstants evaluates instructions whose operands are constants and
// simplifies algebraic identities (x+0, x*1, x*0, x<<0, branch-on-constant).
func FlatFoldConstants(fp *rtl.FlatProgram, fi int) bool {
	return withCleaner(fp, fi, (*cleaner).foldConstants)
}

func (c *cleaner) foldConstants() bool {
	f := c.f
	changed := false
	for i := int32(0); i < int32(len(f.Op)); i++ {
		if flatFoldInstr(f, i) {
			changed = true
		}
	}
	return changed
}

func flatFoldInstr(f *rtl.FlatFn, i int32) bool {
	a, aok := f.A[i].IsConst()
	bv, bok := f.B[i].IsConst()
	set := func(v int64) bool {
		in := rtl.MkInstr(rtl.Mov)
		in.Dst = f.Dst[i]
		in.A = rtl.C(v)
		f.SetInstr(i, in)
		return true
	}
	switch f.Op[i] {
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
			t := f.Target[i]
			if a == 0 {
				t = f.Else[i]
			}
			in := rtl.MkInstr(rtl.Jump)
			in.Target = t
			f.SetInstr(i, in)
			return true
		}
		if f.Target[i] == f.Else[i] {
			in := rtl.MkInstr(rtl.Jump)
			in.Target = f.Target[i]
			f.SetInstr(i, in)
			return true
		}
	case rtl.Extract:
		if aok && bok {
			return set(rtl.EvalExtract(a, bv, f.Width[i], f.Signed[i]))
		}
	case rtl.Insert:
		if cv, cok := f.C[i].IsConst(); aok && bok && cok {
			return set(rtl.EvalInsert(a, bv, cv, f.Width[i]))
		}
	}
	if !f.Op[i].IsBinary() {
		return false
	}
	if aok && bok {
		if v, ok := rtl.EvalBinary(f.Op[i], a, bv, f.Signed[i]); ok {
			return set(v)
		}
		return false
	}
	// Algebraic identities with one constant side.
	isMov := func(o rtl.Operand) bool {
		in := rtl.MkInstr(rtl.Mov)
		in.Dst = f.Dst[i]
		in.A = o
		f.SetInstr(i, in)
		return true
	}
	switch f.Op[i] {
	case rtl.Add:
		if aok && a == 0 {
			return isMov(f.B[i])
		}
		if bok && bv == 0 {
			return isMov(f.A[i])
		}
	case rtl.Sub:
		if bok && bv == 0 {
			return isMov(f.A[i])
		}
		if ra, okA := f.A[i].IsReg(); okA {
			if rb, okB := f.B[i].IsReg(); okB && ra == rb {
				return set(0)
			}
		}
	case rtl.Mul:
		if (aok && a == 0) || (bok && bv == 0) {
			return set(0)
		}
		if aok && a == 1 {
			return isMov(f.B[i])
		}
		if bok && bv == 1 {
			return isMov(f.A[i])
		}
	case rtl.Shl, rtl.Shr:
		if bok && bv == 0 {
			return isMov(f.A[i])
		}
	case rtl.And:
		if (aok && a == 0) || (bok && bv == 0) {
			return set(0)
		}
		if aok && a == -1 {
			return isMov(f.B[i])
		}
		if bok && bv == -1 {
			return isMov(f.A[i])
		}
	case rtl.Or, rtl.Xor:
		if aok && a == 0 {
			return isMov(f.B[i])
		}
		if bok && bv == 0 {
			return isMov(f.A[i])
		}
	}
	return false
}

// FlatPropagateLocal forwards constants and copies within each block, tracking
// kills precisely, so chains like "t=2; u=t; v=a+u" collapse without any
// global analysis.
func FlatPropagateLocal(fp *rtl.FlatProgram, fi int) bool {
	return withCleaner(fp, fi, (*cleaner).propagateLocal)
}

func (c *cleaner) propagateLocal() bool {
	f := c.f
	n := f.NumRegs()
	c.val = reuse.Zeroed(c.val, n)
	c.has = reuse.Zeroed(c.has, n)
	val, has := c.val, c.has
	changed := false
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			for k, n := 0, f.NumSrcs(i); k < n; k++ {
				if o := f.Src(i, k); o.Kind == rtl.KindReg && has[o.Reg] {
					*o = val[o.Reg]
					changed = true
				}
			}
			d, ok := f.Def(i)
			if !ok {
				continue
			}
			// Kill d and anything that referenced the redefined register.
			has[d] = false
			kept := c.touched[:0]
			for _, r := range c.touched {
				if !has[r] {
					continue
				}
				if vr, ok := val[r].IsReg(); ok && vr == d {
					has[r] = false
					continue
				}
				kept = append(kept, r)
			}
			c.touched = kept
			if f.Op[i] == rtl.Mov {
				_, isC := f.A[i].IsConst()
				sr, isR := f.A[i].IsReg()
				if isC || (isR && sr != d) {
					val[d], has[d] = f.A[i], true
					c.touched = append(c.touched, d)
				}
			}
		}
		for _, r := range c.touched {
			has[r] = false
		}
		c.touched = c.touched[:0]
	}
	return changed
}

// FlatPropagateImmutable performs global constant/copy propagation restricted to
// registers with a single definition: if r is defined exactly once as a
// constant, or as a copy of another immutable register, its uses dominated
// by the definition are rewritten.
func FlatPropagateImmutable(fp *rtl.FlatProgram, fi int) bool {
	return withCleaner(fp, fi, (*cleaner).propagateImmutable)
}

func (c *cleaner) propagateImmutable() bool {
	f := c.f
	du := c.defUse()
	if !hasImmutableCopy(f, du) {
		return false
	}
	g := c.graph()
	changed := false
	for bi := range f.Blocks {
		if !g.Reachable(int32(bi)) {
			continue
		}
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			idx := i - b.InstrStart
			for k, n := 0, f.NumSrcs(i); k < n; k++ {
				o := f.Src(i, k)
				if o.Kind != rtl.KindReg {
					continue
				}
				repl, site, ok := immutableCopy(f, du, o.Reg)
				if ok && flatDominatesUse(g, site, int32(bi), idx) {
					*o = repl
					changed = true
				}
			}
		}
	}
	return changed
}

// immutableCopy returns what a use of r may read instead of r, and where r
// is defined, when r's single definition is a Mov of a constant or of an
// immutable register.
func immutableCopy(f *rtl.FlatFn, du *dataflow.FlatDefUse, r rtl.Reg) (rtl.Operand, dataflow.FlatDefSite, bool) {
	site, ok := du.SingleDef(r)
	if !ok || f.Op[site.Instr] != rtl.Mov {
		return rtl.Operand{}, site, false
	}
	if c, isC := f.A[site.Instr].IsConst(); isC {
		return rtl.C(c), site, true
	}
	if sr, isR := f.A[site.Instr].IsReg(); isR && du.Immutable(sr) {
		return rtl.R(sr), site, true
	}
	return rtl.Operand{}, site, false
}

// hasImmutableCopy reports whether some Mov defines a register that
// immutableCopy would replace; without one, propagateImmutable can change
// nothing and skips its operand walk.
func hasImmutableCopy(f *rtl.FlatFn, du *dataflow.FlatDefUse) bool {
	for i := range f.Op {
		if f.Op[i] != rtl.Mov {
			continue
		}
		if d, ok := f.Def(int32(i)); ok {
			if _, _, ok := immutableCopy(f, du, d); ok {
				return true
			}
		}
	}
	return false
}

func flatDominatesUse(g *cfg.FlatGraph, site dataflow.FlatDefSite, useBlock, useIdx int32) bool {
	if site.Block == useBlock {
		return site.Index < useIdx
	}
	return g.Dominates(site.Block, useBlock)
}

// FlatLocalCSE removes redundant pure computations within a block using value
// numbering keyed on (op, operands, width, signedness). Loads are reused
// until a store or call intervenes.
//
// Availability is tracked with a register-indexed kill list: killing a
// register visits only the entries that mention it, so a definition costs
// O(mentions) rather than a sweep of every available expression.
func FlatLocalCSE(fp *rtl.FlatProgram, fi int) bool {
	return withCleaner(fp, fi, (*cleaner).localCSE)
}

// cseKey is the value-numbering key of one pure computation.
type cseKey struct {
	op      rtl.Op
	a, b, c rtl.Operand
	w       rtl.Width
	signed  bool
	disp    int64
}

func (k *cseKey) hash() uint64 {
	const mul = 0x9e3779b97f4a7c15
	h := uint64(k.op) | uint64(k.w)<<8 | uint64(k.a.Kind)<<16 | uint64(k.b.Kind)<<20 | uint64(k.c.Kind)<<24
	if k.signed {
		h |= 1 << 28
	}
	for _, x := range [...]uint64{
		uint64(uint32(k.a.Reg)), uint64(k.a.Const),
		uint64(uint32(k.b.Reg)), uint64(k.b.Const),
		uint64(uint32(k.c.Reg)), uint64(k.c.Const),
		uint64(k.disp),
	} {
		h = (h ^ x) * mul
	}
	return h ^ h>>32
}

type cseEntry struct {
	k    cseKey
	r    rtl.Reg
	dead bool
}

// cseTable is the local CSE's reusable availability table: an open-addressed
// hash set of entry indices, cleared slot by slot after each block. A
// retired entry stays in its slot marked dead and reads as a miss; since at
// most one live entry per key exists at a time, a new entry for the same key
// takes over the dead one's slot.
type cseTable struct {
	entries []cseEntry
	slots   []int32 // entry index + 1; 0 is empty
	written []int32 // slots the current block filled
	loads   []int32 // entry indices holding Load expressions
	byReg   [][]int32
}

// reset sizes the table for blocks of up to maxLen instructions and nregs
// registers. Between blocks every slot and kill list is already empty.
func (t *cseTable) reset(maxLen, nregs int) {
	size := 16
	for size < 2*maxLen {
		size *= 2
	}
	if len(t.slots) < size {
		t.slots = make([]int32, size)
		t.entries = make([]cseEntry, 0, maxLen)
		t.written = make([]int32, 0, maxLen)
	}
	if len(t.byReg) < nregs {
		t.byReg = append(t.byReg, make([][]int32, nregs-len(t.byReg))...)
	}
}

// find returns the slot holding key k, or the empty slot where k would go,
// and the index of k's entry, or -1 when the slot is empty.
func (t *cseTable) find(k *cseKey) (slot int32, idx int32) {
	mask := uint64(len(t.slots) - 1)
	for p := k.hash() & mask; ; p = (p + 1) & mask {
		s := t.slots[p]
		if s == 0 || t.entries[s-1].k == *k {
			return int32(p), s - 1
		}
	}
}

func (t *cseTable) retire(idx int32) { t.entries[idx].dead = true }

func (t *cseTable) kill(d rtl.Reg) {
	lst := t.byReg[d]
	t.byReg[d] = lst[:0]
	for _, idx := range lst {
		t.retire(idx)
	}
}

// endBlock drops every entry and clears only the slots and kill lists this
// block touched, keeping their capacity for reuse.
func (t *cseTable) endBlock() {
	for idx := range t.entries {
		e := &t.entries[idx]
		t.byReg[e.r] = t.byReg[e.r][:0]
		for _, o := range [...]rtl.Operand{e.k.a, e.k.b, e.k.c} {
			if r, ok := o.IsReg(); ok {
				t.byReg[r] = t.byReg[r][:0]
			}
		}
	}
	for _, p := range t.written {
		t.slots[p] = 0
	}
	t.entries = t.entries[:0]
	t.written = t.written[:0]
	t.loads = t.loads[:0]
}

func (c *cleaner) localCSE() bool {
	f := c.f
	t := &c.cse
	maxLen := 0
	for bi := range f.Blocks {
		maxLen = max(maxLen, int(f.Blocks[bi].InstrEnd-f.Blocks[bi].InstrStart))
	}
	t.reset(maxLen, f.NumRegs())
	changed := false
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			switch f.Op[i] {
			case rtl.Store, rtl.Call:
				// Conservatively kill remembered loads.
				for _, idx := range t.loads {
					t.retire(idx)
				}
				t.loads = t.loads[:0]
			}
			d, hasDef := f.Def(i)
			if !hasDef {
				continue
			}
			op := f.Op[i]
			pure := op.IsBinary() || op == rtl.Neg || op == rtl.Not ||
				op == rtl.Extract || op == rtl.Insert || op == rtl.Load
			if !pure {
				t.kill(d)
				continue
			}
			k := cseKey{op: op, a: f.A[i], b: f.B[i], c: f.C[i], w: f.Width[i], signed: f.Signed[i], disp: f.Disp[i]}
			slot, idx := t.find(&k)
			if idx >= 0 && !t.entries[idx].dead && t.entries[idx].r != d {
				in := rtl.MkInstr(rtl.Mov)
				in.Dst = d
				in.A = rtl.R(t.entries[idx].r)
				f.SetInstr(i, in)
				t.kill(d)
				changed = true
				continue
			}
			t.kill(d)
			// Self-referential defs (r = r + 1) are not available afterwards.
			if !f.UsesReg(i, d) {
				idx := int32(len(t.entries))
				t.entries = append(t.entries, cseEntry{k: k, r: d})
				if t.slots[slot] == 0 {
					t.written = append(t.written, slot)
				}
				t.slots[slot] = idx + 1
				t.byReg[d] = append(t.byReg[d], idx)
				for _, o := range [...]rtl.Operand{k.a, k.b, k.c} {
					if r, ok := o.IsReg(); ok {
						t.byReg[r] = append(t.byReg[r], idx)
					}
				}
				if op == rtl.Load {
					t.loads = append(t.loads, idx)
				}
			}
		}
		t.endBlock()
	}
	return changed
}

// FlatCollapseMovChains rewrites "t = x op y; ...; v = t" (t defined and used
// exactly once, both in the same block) into "...; v = x op y", deleting the
// temporary. Front-end output assigns every expression to a fresh register
// and then moves it into the variable's home register, which hides
// induction updates ("i = i + 1" arrives as "t = i + 1; i = t") from the
// loop analyses; this pass restores the canonical form.
func FlatCollapseMovChains(fp *rtl.FlatProgram, fi int) bool {
	return withCleaner(fp, fi, (*cleaner).collapseMovChains)
}

func (c *cleaner) collapseMovChains() bool {
	f := c.f
	du := c.defUse()
	for len(c.defAt) < f.NumRegs() {
		c.defAt = append(c.defAt, -1)
	}
	defAt := c.defAt

	changed := false
	kill := c.marks(len(f.Op))
	anyKill := false
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if f.Op[i] == rtl.Mov {
				if t, ok := f.A[i].IsReg(); ok && du.DefCount(t) == 1 && du.UseCount(t) == 1 {
					if di := defAt[t]; di >= 0 && flatMovable(f, di, i, f.Dst[i]) {
						if flatFusable(f, di) {
							nd := f.Dst[i]
							def := f.Instr(di)
							def.Dst = nd
							f.SetInstr(i, def)
							f.SetInstr(di, rtl.MkInstr(rtl.Nop))
							changed = true
						}
					}
				}
			}
			if d, ok := f.Def(i); ok {
				if defAt[d] < 0 {
					c.touched = append(c.touched, d)
				}
				defAt[d] = i
			}
		}
		for _, r := range c.touched {
			defAt[r] = -1
		}
		c.touched = c.touched[:0]
		if changed {
			for i := b.InstrStart; i < b.InstrEnd; i++ {
				if f.Op[i] == rtl.Nop {
					kill[i] = true
					anyKill = true
				}
			}
		}
	}
	if anyKill {
		f.Compact(kill)
	}
	return changed
}

// flatFusable reports whether instruction i is a pure computation whose
// destination can be renamed.
func flatFusable(f *rtl.FlatFn, i int32) bool {
	switch f.Op[i] {
	case rtl.Mov, rtl.Neg, rtl.Not, rtl.Extract, rtl.Insert:
		return true
	}
	return f.Op[i].IsBinary()
}

// flatMovable reports whether the definition at di can be retargeted to v at
// j (same block): nothing in between redefines v or the definition's
// sources, or reads v.
func flatMovable(f *rtl.FlatFn, di, j int32, v rtl.Reg) bool {
	for k := di + 1; k < j; k++ {
		if d, ok := f.Def(k); ok && (d == v || f.UsesReg(di, d)) {
			return false
		}
		if f.UsesReg(k, v) {
			return false
		}
	}
	return true
}

// FlatPeephole applies machine-independent strength reductions and branch
// simplifications:
//
//   - multiply by a power-of-two constant becomes a shift;
//   - unsigned divide/remainder by a power of two becomes a shift/mask;
//   - a branch on "x != 0" branches on x directly;
//   - a branch on "cmp == 0" branches on the inverted comparison.
//
// These mirror vpo's peephole stage; they also keep the scheduler's latency
// estimates honest, since multiplies are the slowest ALU operation on all
// three machine models.
func FlatPeephole(fp *rtl.FlatProgram, fi int) bool {
	return withCleaner(fp, fi, (*cleaner).peephole)
}

func (c *cleaner) peephole() bool {
	f := c.f
	changed := false
	for i := int32(0); i < int32(len(f.Op)); i++ {
		if flatReduceInstr(f, i) {
			changed = true
			c.dirty()
		}
	}
	if c.simplifyBranches() {
		changed = true
	}
	return changed
}

func flatReduceInstr(f *rtl.FlatFn, i int32) bool {
	cOf := func(o rtl.Operand) (int64, bool) {
		v, ok := o.IsConst()
		if !ok || v <= 0 || v&(v-1) != 0 {
			return 0, false
		}
		return int64(bits.TrailingZeros64(uint64(v))), true
	}
	mk := func(op rtl.Op, a rtl.Operand, b rtl.Operand) bool {
		in := rtl.MkInstr(op)
		in.Dst = f.Dst[i]
		in.A = a
		in.B = b
		f.SetInstr(i, in)
		return true
	}
	switch f.Op[i] {
	case rtl.Mul:
		if sh, ok := cOf(f.B[i]); ok {
			return mk(rtl.Shl, f.A[i], rtl.C(sh))
		}
		if sh, ok := cOf(f.A[i]); ok {
			return mk(rtl.Shl, f.B[i], rtl.C(sh))
		}
	case rtl.Div:
		if f.Signed[i] {
			return false // signed division by 2^k needs rounding fixups
		}
		if sh, ok := cOf(f.B[i]); ok {
			return mk(rtl.Shr, f.A[i], rtl.C(sh))
		}
	case rtl.Rem:
		if f.Signed[i] {
			return false
		}
		if v, ok := f.B[i].IsConst(); ok && v > 0 && v&(v-1) == 0 {
			return mk(rtl.And, f.A[i], rtl.C(v-1))
		}
	}
	return false
}

func (c *cleaner) simplifyBranches() bool {
	f := c.f
	du := c.defUse()
	changed := false
	for bi := range f.Blocks {
		ti, op, ok := f.TermIdx(int32(bi))
		if !ok || op != rtl.Branch {
			continue
		}
		condReg, ok := f.A[ti].IsReg()
		if !ok {
			continue
		}
		site, ok := du.SingleDef(condReg)
		if !ok || site.Block != int32(bi) || du.UseCount(condReg) != 1 {
			continue
		}
		def := site.Instr
		zeroCmp := func() (rtl.Operand, bool) {
			if v, isC := f.B[def].IsConst(); isC && v == 0 {
				return f.A[def], true
			}
			return rtl.Operand{}, false
		}
		switch f.Op[def] {
		case rtl.SetNE:
			// branch (x != 0) T F  =>  branch x T F
			if x, ok := zeroCmp(); ok {
				f.A[ti] = x
				f.SetInstr(def, rtl.MkInstr(rtl.Nop))
				changed = true
			}
		case rtl.SetEQ:
			// branch (x == 0) T F  =>  branch x F T
			if x, ok := zeroCmp(); ok {
				f.A[ti] = x
				f.Target[ti], f.Else[ti] = f.Else[ti], f.Target[ti]
				f.SetInstr(def, rtl.MkInstr(rtl.Nop))
				changed = true
			}
		}
	}
	if changed {
		kill := c.marks(len(f.Op))
		for i := range f.Op {
			if f.Op[i] == rtl.Nop {
				kill[i] = true
			}
		}
		f.Compact(kill)
	}
	return changed
}

// FlatDeadCodeElim removes pure instructions whose results are never used,
// iterating so chains of dead temporaries disappear.
func FlatDeadCodeElim(fp *rtl.FlatProgram, fi int) bool {
	return withCleaner(fp, fi, (*cleaner).deadCodeElim)
}

// deadCodeElim marks instructions dead and compacts once. Marking one
// takes its reads out of the use counts, which can leave an earlier
// definition unused, so it sweeps backward until a sweep marks nothing.
// Removing an instruction only lowers use counts, so the marked set is the
// one that removing and recounting until nothing is unused would reach.
func (c *cleaner) deadCodeElim() bool {
	f := c.f
	c.uses = append(c.uses[:0], c.defUse().UseCounts()...)
	use := c.uses
	kill := c.marks(len(f.Op))
	changed := false
	for swept := true; swept; {
		swept = false
		for i := int32(len(f.Op)) - 1; i >= 0; i-- {
			d, ok := f.Def(i)
			if !ok || kill[i] || use[d] != 0 || !flatSideEffectFree(f.Op[i]) {
				continue
			}
			kill[i] = true
			swept, changed = true, true
			c.regs = f.SrcRegs(i, c.regs[:0])
			for _, r := range c.regs {
				use[r]--
			}
		}
	}
	if changed {
		f.Compact(kill)
	}
	return changed
}

func flatSideEffectFree(op rtl.Op) bool {
	switch op {
	case rtl.Store, rtl.Call, rtl.Jump, rtl.Branch, rtl.Ret:
		return false
	}
	return true
}

// FlatGlobalDCE removes pure instructions whose destination is dead at the
// definition point, using liveness rather than use counts. The distinction
// matters after loop replication: the unroller's mov-backs restore
// loop-carried names for the *other* loop version, so every register has
// textual uses somewhere, but inside one version many of those values are
// never live — use-count DCE keeps them, liveness kills them. Iterates to a
// fixpoint since removing one dead definition can kill the chain feeding it.
func FlatGlobalDCE(fp *rtl.FlatProgram, fi int) bool {
	return withCleaner(fp, fi, (*cleaner).globalDCE)
}

func (c *cleaner) globalDCE() bool {
	f := c.f
	changedEver := false
	for {
		g := c.graph()
		lv := &c.lv
		dataflow.ComputeFlatLivenessInto(g, lv)
		changed := false
		kill := c.marks(len(f.Op))
		for bi := range f.Blocks {
			if !g.Reachable(int32(bi)) {
				continue
			}
			b := &f.Blocks[bi]
			out := lv.LiveOutSet(int32(bi))
			c.live = reuse.Zeroed(c.live, len(out))
			live := c.live
			live.Copy(out)
			for i := b.InstrEnd - 1; i >= b.InstrStart; i-- {
				d, hasDef := f.Def(i)
				if hasDef && !live.Has(int(d)) && flatSideEffectFree(f.Op[i]) {
					kill[i] = true
					changed = true
					continue
				}
				if hasDef {
					live.Clear(int(d))
				}
				c.regs = f.SrcRegs(i, c.regs[:0])
				for _, r := range c.regs {
					live.Set(int(r))
				}
			}
		}
		if !changed {
			return changedEver
		}
		f.Compact(kill)
		c.dirty()
		changedEver = true
	}
}

// FlatEliminateDeadIVs removes induction-variable updates whose value feeds
// nothing but themselves: after linear function test replacement the
// original counter's only remaining uses are its own "i = i + 1"
// definitions, which plain dead-code elimination cannot see because the
// use count never reaches zero. This is the paper's
// EliminateInductionVariables step.
func FlatEliminateDeadIVs(fp *rtl.FlatProgram, fi int) bool {
	return withCleaner(fp, fi, (*cleaner).eliminateDeadIVs)
}

func (c *cleaner) eliminateDeadIVs() bool {
	f := c.f
	c.selfOnly = reuse.Zeroed(c.selfOnly, f.NumRegs())
	selfOnly := c.selfOnly // candidate: all uses are self-updates
	for i := range selfOnly {
		selfOnly[i] = true
	}
	for i := int32(0); i < int32(len(f.Op)); i++ {
		d, hasDef := f.Def(i)
		c.regs = f.SrcRegs(i, c.regs[:0])
		for _, r := range c.regs {
			// A use is harmless only if this instruction redefines the
			// same register as a pure self-update.
			if !(hasDef && d == r && flatIsSelfUpdate(f, i, r)) {
				selfOnly[r] = false
			}
		}
	}
	kill := c.marks(len(f.Op))
	changed := false
	for i := int32(0); i < int32(len(f.Op)); i++ {
		if d, ok := f.Def(i); ok && selfOnly[d] && flatIsSelfUpdate(f, i, d) {
			kill[i] = true
			changed = true
		}
	}
	if changed {
		f.Compact(kill)
	}
	return changed
}

func flatIsSelfUpdate(f *rtl.FlatFn, i int32, r rtl.Reg) bool {
	op := f.Op[i]
	if op != rtl.Add && op != rtl.Sub && op != rtl.Mov {
		return false
	}
	d, ok := f.Def(i)
	if !ok || d != r {
		return false
	}
	// Every register operand must be r itself.
	var buf [2]rtl.Reg // Add, Sub and Mov read at most two
	for _, sr := range f.SrcRegs(i, buf[:0]) {
		if sr != r {
			return false
		}
	}
	return true
}

// FlatThreadJumps redirects edges that point at blocks containing only an
// unconditional jump, then removes the now-unreachable trampolines. It keeps
// loop headers intact (a self-jump is never threaded).
func FlatThreadJumps(fp *rtl.FlatProgram, fi int) bool {
	f := &fp.Fns[fi]
	changed := false
	target := make(map[int32]int32)
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if b.InstrEnd-b.InstrStart == 1 {
			if ti, op, ok := f.TermIdx(int32(bi)); ok && op == rtl.Jump && f.Target[ti] != int32(bi) {
				target[int32(bi)] = f.Target[ti]
			}
		}
	}
	resolve := func(b int32) int32 {
		seen := map[int32]bool{}
		for {
			t, ok := target[b]
			if !ok || seen[b] {
				return b
			}
			seen[b] = true
			b = t
		}
	}
	for bi := range f.Blocks {
		ti, _, ok := f.TermIdx(int32(bi))
		if !ok {
			continue
		}
		if t := f.Target[ti]; t >= 0 {
			if r := resolve(t); r != t {
				f.Target[ti] = r
				changed = true
			}
		}
		if e := f.Else[ti]; e >= 0 {
			if r := resolve(e); r != e {
				f.Else[ti] = r
				changed = true
			}
		}
	}
	if changed {
		FlatRemoveUnreachable(fp, fi)
	}
	return changed
}

// FlatNormalizeAddresses is the local pass behind the paper's
// CalculateRelativeOffsets step. Within each block it tracks which
// registers currently hold "entry value of register b plus constant k" and
// uses that to (a) rewrite memory operands into base+displacement form off
// the block-entry register and (b) turn copies of offset values into adds
// off the base. After unrolling, the renamed induction chains
// (p0 = p+2; p1 = p0+2; ...) feed loads at [p+0], [p+2], [p+4], ... and the
// chain itself dies, leaving exactly the consecutive-displacement pattern
// the coalescer partitions.
func FlatNormalizeAddresses(fp *rtl.FlatProgram, fi int) bool {
	f := &fp.Fns[fi]
	changed := false
	for bi := range f.Blocks {
		if flatNormalizeBlock(f, int32(bi)) {
			changed = true
		}
	}
	return changed
}

type affVal struct {
	base rtl.Reg // register whose block-entry value anchors this
	k    int64
}

func flatNormalizeBlock(f *rtl.FlatFn, bi int32) bool {
	changed := false
	aff := make(map[rtl.Reg]affVal)     // reg -> entry(base)+k
	redefined := make(map[rtl.Reg]bool) // regs no longer holding entry value

	lookup := func(r rtl.Reg) (affVal, bool) {
		if v, ok := aff[r]; ok {
			return v, true
		}
		if redefined[r] {
			return affVal{}, false
		}
		return affVal{base: r, k: 0}, true
	}

	b := &f.Blocks[bi]
	for i := b.InstrStart; i < b.InstrEnd; i++ {
		// Rewrite memory references to anchor at the entry value.
		if f.IsMem(i) {
			if base, ok := f.A[i].IsReg(); ok {
				if v, ok := lookup(base); ok && (v.base != base || v.k != 0) {
					f.A[i] = rtl.R(v.base)
					f.Disp[i] += v.k
					changed = true
				}
			}
		}

		d, hasDef := f.Def(i)
		if !hasDef {
			continue
		}

		// Compute the transfer before recording the redefinition.
		var newVal *affVal
		switch f.Op[i] {
		case rtl.Mov:
			if r, ok := f.A[i].IsReg(); ok {
				if v, ok := lookup(r); ok {
					newVal = &v
				}
			}
		case rtl.Add:
			if r, ok := f.A[i].IsReg(); ok {
				if c, okc := f.B[i].IsConst(); okc {
					if v, ok := lookup(r); ok {
						nv := affVal{base: v.base, k: v.k + c}
						newVal = &nv
					}
				}
			}
			if r, ok := f.B[i].IsReg(); ok && newVal == nil {
				if c, okc := f.A[i].IsConst(); okc {
					if v, ok := lookup(r); ok {
						nv := affVal{base: v.base, k: v.k + c}
						newVal = &nv
					}
				}
			}
		case rtl.Sub:
			if r, ok := f.A[i].IsReg(); ok {
				if c, okc := f.B[i].IsConst(); okc {
					if v, ok := lookup(r); ok {
						nv := affVal{base: v.base, k: v.k - c}
						newVal = &nv
					}
				}
			}
		}

		// Canonicalize the instruction itself onto the entry anchor, which
		// disconnects it from the renamed chain so the chain can die: e.g.
		// "p3 = p2 + 2" where p2 = entry(p)+4 becomes "p3 = p + 6", and a
		// mov-back "p = p3" becomes "p = p + 8".
		if newVal != nil && !(newVal.base == d && newVal.k == 0) {
			rewritten := rtl.MkInstr(rtl.Add)
			rewritten.Dst = d
			rewritten.A = rtl.R(newVal.base)
			rewritten.B = rtl.C(newVal.k)
			if newVal.k == 0 {
				rewritten = rtl.MkInstr(rtl.Mov)
				rewritten.Dst = d
				rewritten.A = rtl.R(newVal.base)
			}
			if !flatSameInstr(f, i, rewritten) {
				f.SetInstr(i, rewritten)
				changed = true
			}
		}

		// Record the redefinition: d stops holding its entry value, and
		// anything anchored on d's entry value must be dropped for future
		// rewrites (the anchor is the value at block entry, which d no
		// longer holds).
		redefined[d] = true
		delete(aff, d)
		for r, v := range aff {
			if v.base == d {
				delete(aff, r)
			}
		}
		if newVal != nil && newVal.base != d && !redefined[newVal.base] {
			aff[d] = *newVal
		}
	}
	return changed
}

func flatSameInstr(f *rtl.FlatFn, i int32, in rtl.FlatInstr) bool {
	return f.Op[i] == in.Op && f.Dst[i] == in.Dst && f.A[i] == in.A && f.B[i] == in.B &&
		f.C[i] == in.C && f.Width[i] == in.Width && f.Signed[i] == in.Signed && f.Disp[i] == in.Disp
}

// Package iv implements induction-variable analysis and the two derived
// transformations the coalescing algorithm depends on (Figure 2 of the
// paper): strength reduction of address expressions into pointer induction
// variables — which gives every memory reference the loop-invariant base +
// constant displacement shape the offset calculation needs — and linear
// function test replacement, which lets EliminateInductionVariables remove
// the integer counter entirely, as in the paper's Figure 1b where the loop
// ends by comparing the array pointer against a precomputed limit.
//
// The analysis runs over one natural loop of a flat (struct-of-arrays)
// function; instructions are identified by absolute index.
package iv

import (
	"fmt"
	"sort"

	"macc/internal/cfg"
	"macc/internal/dataflow"
	"macc/internal/rtl"
	"macc/internal/telemetry"
)

// FlatBasicIV is a register whose only in-loop definitions add a constant.
type FlatBasicIV struct {
	Reg  rtl.Reg
	Step int64   // net change per iteration
	Incs []int32 // the increments' instruction indices
}

// FlatControl describes the loop's header exit test, normalized so the loop
// continues while "IV cmp Bound" holds.
type FlatControl struct {
	Cmp    int32 // the Set* compare in the header
	Branch int32 // the header terminator
	IV     rtl.Reg
	Bound  rtl.Operand // loop invariant
	// Op is SetLT/SetLE (counting up) or SetGT/SetGE (counting down) with
	// the IV conceptually on the left-hand side.
	Op     rtl.Op
	Signed bool
}

// FlatInfo is the result of analyzing one natural loop. The instruction
// indices it records (increments, the control compare and branch) stay
// valid across the instructions StrengthReduce and ReplaceTest insert; any
// other edit of the function makes the analysis stale.
type FlatInfo struct {
	Loop     *cfg.FlatLoop
	Graph    *cfg.FlatGraph
	BasicIVs map[rtl.Reg]*FlatBasicIV
	Control  *FlatControl

	defsInLoop map[rtl.Reg]int
	du         *dataflow.FlatDefUse // computed by StrengthReduce
}

// AnalyzeFlat inspects a natural loop and finds its invariant registers,
// basic induction variables, and controlling test. It never fails; absent
// features are simply nil/empty.
func AnalyzeFlat(g *cfg.FlatGraph, l *cfg.FlatLoop) *FlatInfo {
	info := &FlatInfo{
		Loop:       l,
		Graph:      g,
		BasicIVs:   make(map[rtl.Reg]*FlatBasicIV),
		defsInLoop: make(map[rtl.Reg]int),
	}
	f := g.F
	for _, bi := range l.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if d, ok := f.Def(i); ok {
				info.defsInLoop[d]++
			}
		}
	}
	info.findBasicIVs()
	info.findControl()
	return info
}

// Invariant reports whether register r has no definition inside the loop.
func (info *FlatInfo) Invariant(r rtl.Reg) bool { return info.defsInLoop[r] == 0 }

// InvariantOperand reports whether operand o is a constant or an invariant
// register.
func (info *FlatInfo) InvariantOperand(o rtl.Operand) bool {
	if r, ok := o.IsReg(); ok {
		return info.Invariant(r)
	}
	return o.Kind == rtl.KindConst
}

// flatIVStep recognizes "r = r ± const" at instruction i and returns the
// signed step.
func flatIVStep(f *rtl.FlatFn, i int32, r rtl.Reg) (int64, bool) {
	switch f.Op[i] {
	case rtl.Add:
		if ar, ok := f.A[i].IsReg(); ok && ar == r {
			if c, ok := f.B[i].IsConst(); ok {
				return c, true
			}
		}
		if br, ok := f.B[i].IsReg(); ok && br == r {
			if c, ok := f.A[i].IsConst(); ok {
				return c, true
			}
		}
	case rtl.Sub:
		if ar, ok := f.A[i].IsReg(); ok && ar == r {
			if c, ok := f.B[i].IsConst(); ok {
				return -c, true
			}
		}
	}
	return 0, false
}

func (info *FlatInfo) findBasicIVs() {
	l, g := info.Loop, info.Graph
	f := g.F
	cand := make(map[rtl.Reg]*FlatBasicIV)
	bad := make(map[rtl.Reg]bool)
	for _, bi := range l.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			d, ok := f.Def(i)
			if !ok || bad[d] {
				continue
			}
			step, isInc := flatIVStep(f, i, d)
			// Every in-loop definition must be an increment executed once
			// per iteration (its block dominates the latch).
			if !isInc || !g.Dominates(bi, l.Latch) {
				bad[d] = true
				delete(cand, d)
				continue
			}
			iv := cand[d]
			if iv == nil {
				iv = &FlatBasicIV{Reg: d}
				cand[d] = iv
			}
			iv.Step += step
			iv.Incs = append(iv.Incs, i)
		}
	}
	for r, iv := range cand {
		if iv.Step != 0 && !bad[r] {
			info.BasicIVs[r] = iv
		}
	}
}

func (info *FlatInfo) findControl() {
	l := info.Loop
	f := info.Graph.F
	ti, top, ok := f.TermIdx(l.Header)
	if !ok || top != rtl.Branch {
		return
	}
	condReg, ok := f.A[ti].IsReg()
	if !ok {
		return
	}
	// The compare must be the header's definition of the branch condition.
	cmp := int32(-1)
	hb := &f.Blocks[l.Header]
	for i := hb.InstrStart; i < ti; i++ {
		if d, ok := f.Def(i); ok && d == condReg {
			cmp = i
		}
	}
	if cmp < 0 || !f.Op[cmp].IsCompare() {
		return
	}
	continueOnTrue := l.Contains(f.Target[ti]) && !l.Contains(f.Else[ti])
	continueOnFalse := l.Contains(f.Else[ti]) && !l.Contains(f.Target[ti])
	if !continueOnTrue && !continueOnFalse {
		return
	}
	op := f.Op[cmp]
	a, b := f.A[cmp], f.B[cmp]
	if continueOnFalse {
		op = negateCmp(op)
	}
	// resolveIV accepts a basic IV directly, or an offset of one computed
	// in the loop ("t = iv + 7" from an unroll guard). The offset shifts
	// the effective bound by a constant, which every consumer of Control
	// treats as an over-approximation of at most one group of iterations.
	resolveIV := func(r rtl.Reg) (rtl.Reg, bool) {
		if info.BasicIVs[r] != nil {
			return r, true
		}
		if info.defsInLoop[r] != 1 {
			return rtl.NoReg, false
		}
		for _, bi := range l.Blocks {
			blk := &f.Blocks[bi]
			for i := blk.InstrStart; i < blk.InstrEnd; i++ {
				d, ok := f.Def(i)
				if !ok || d != r {
					continue
				}
				if f.Op[i] == rtl.Add || f.Op[i] == rtl.Sub {
					if base, ok := f.A[i].IsReg(); ok && info.BasicIVs[base] != nil {
						if _, isC := f.B[i].IsConst(); isC {
							return base, true
						}
					}
					if f.Op[i] == rtl.Add {
						if base, ok := f.B[i].IsReg(); ok && info.BasicIVs[base] != nil {
							if _, isC := f.A[i].IsConst(); isC {
								return base, true
							}
						}
					}
				}
				return rtl.NoReg, false
			}
		}
		return rtl.NoReg, false
	}
	// Normalize the IV to the left-hand side.
	tryIV := func(side rtl.Operand, other rtl.Operand, o rtl.Op) bool {
		sr, ok := side.IsReg()
		if !ok {
			return false
		}
		r, ok := resolveIV(sr)
		if !ok {
			return false
		}
		iv := info.BasicIVs[r]
		if !info.InvariantOperand(other) {
			return false
		}
		switch o {
		case rtl.SetLT, rtl.SetLE:
			if iv.Step <= 0 {
				return false
			}
		case rtl.SetGT, rtl.SetGE:
			if iv.Step >= 0 {
				return false
			}
		default:
			return false
		}
		info.Control = &FlatControl{
			Cmp: cmp, Branch: ti, IV: r, Bound: other, Op: o, Signed: f.Signed[cmp],
		}
		return true
	}
	if tryIV(a, b, op) {
		return
	}
	tryIV(b, a, swapCmp(op))
}

func negateCmp(op rtl.Op) rtl.Op {
	switch op {
	case rtl.SetEQ:
		return rtl.SetNE
	case rtl.SetNE:
		return rtl.SetEQ
	case rtl.SetLT:
		return rtl.SetGE
	case rtl.SetLE:
		return rtl.SetGT
	case rtl.SetGT:
		return rtl.SetLE
	case rtl.SetGE:
		return rtl.SetLT
	}
	return op
}

func swapCmp(op rtl.Op) rtl.Op {
	switch op {
	case rtl.SetLT:
		return rtl.SetGT
	case rtl.SetLE:
		return rtl.SetGE
	case rtl.SetGT:
		return rtl.SetLT
	case rtl.SetGE:
		return rtl.SetLE
	}
	return op
}

// affine is a linear form: sum(coeff_i * term_i) + c, where terms are
// registers (invariant or basic IVs).
type affine struct {
	terms map[rtl.Reg]int64
	c     int64
}

func (a affine) clone() affine {
	t := make(map[rtl.Reg]int64, len(a.terms))
	for k, v := range a.terms {
		t[k] = v
	}
	return affine{terms: t, c: a.c}
}

func (a affine) addScaled(b affine, k int64) affine {
	out := a.clone()
	for r, co := range b.terms {
		out.terms[r] += co * k
		if out.terms[r] == 0 {
			delete(out.terms, r)
		}
	}
	out.c += b.c * k
	return out
}

func (a affine) scale(k int64) affine {
	out := affine{terms: make(map[rtl.Reg]int64, len(a.terms)), c: a.c * k}
	for r, co := range a.terms {
		if co*k != 0 {
			out.terms[r] = co * k
		}
	}
	return out
}

const maxDecomposeDepth = 24

// decompose expresses the value of reg r (at the top of a loop iteration)
// as an affine form over invariant registers and basic IVs. IV-derived
// temporaries must be defined inside the loop by pure single-definition
// instructions; IV increments must live in the latch so every in-body use
// sees the iteration-start value.
func (info *FlatInfo) decompose(r rtl.Reg, depth int) (affine, bool) {
	if depth > maxDecomposeDepth {
		return affine{}, false
	}
	if info.Invariant(r) || info.BasicIVs[r] != nil {
		return affine{terms: map[rtl.Reg]int64{r: 1}}, true
	}
	site, ok := info.du.SingleDef(r)
	if !ok {
		return affine{}, false
	}
	if !info.Loop.Contains(site.Block) {
		// Defined once but outside this loop: invariant after all.
		return affine{terms: map[rtl.Reg]int64{r: 1}}, true
	}
	f, i := info.Graph.F, site.Instr
	dec := func(o rtl.Operand) (affine, bool) {
		if c, ok := o.IsConst(); ok {
			return affine{terms: map[rtl.Reg]int64{}, c: c}, true
		}
		or, _ := o.IsReg()
		return info.decompose(or, depth+1)
	}
	a, b := f.A[i], f.B[i]
	switch f.Op[i] {
	case rtl.Mov:
		return dec(a)
	case rtl.Add:
		x, ok1 := dec(a)
		y, ok2 := dec(b)
		if ok1 && ok2 {
			return x.addScaled(y, 1), true
		}
	case rtl.Sub:
		x, ok1 := dec(a)
		y, ok2 := dec(b)
		if ok1 && ok2 {
			return x.addScaled(y, -1), true
		}
	case rtl.Shl:
		if sh, ok := b.IsConst(); ok && sh >= 0 && sh < 32 {
			if x, okx := dec(a); okx {
				return x.scale(1 << uint(sh)), true
			}
		}
	case rtl.Mul:
		if k, ok := b.IsConst(); ok {
			if x, okx := dec(a); okx {
				return x.scale(k), true
			}
		}
		if k, ok := a.IsConst(); ok {
			if x, okx := dec(b); okx {
				return x.scale(k), true
			}
		}
	}
	return affine{}, false
}

// splitIV separates an affine form into (single basic IV, its coefficient,
// invariant remainder). It fails when zero or multiple IVs appear.
func (info *FlatInfo) splitIV(a affine) (ivReg rtl.Reg, scale int64, rest affine, ok bool) {
	rest = affine{terms: make(map[rtl.Reg]int64), c: a.c}
	ivReg = rtl.NoReg
	for r, co := range a.terms {
		if info.BasicIVs[r] != nil {
			if ivReg != rtl.NoReg {
				return rtl.NoReg, 0, affine{}, false
			}
			ivReg = r
			scale = co
		} else {
			rest.terms[r] = co
		}
	}
	if ivReg == rtl.NoReg || scale == 0 {
		return rtl.NoReg, 0, affine{}, false
	}
	return ivReg, scale, rest, true
}

// keyOf canonicalizes the (invariant part, IV, scale) triple so references
// marching through the same array share one pointer IV.
func keyOf(ivReg rtl.Reg, scale int64, rest affine) string {
	type kv struct {
		r rtl.Reg
		c int64
	}
	var kvs []kv
	for r, c := range rest.terms {
		kvs = append(kvs, kv{r, c})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].r < kvs[j].r })
	s := fmt.Sprintf("iv%d*%d", ivReg, scale)
	for _, e := range kvs {
		s += fmt.Sprintf("+r%d*%d", e.r, e.c)
	}
	return s
}

// PtrIV records one pointer induction variable created by StrengthReduce.
type PtrIV struct {
	Reg   rtl.Reg
	Basis rtl.Reg // the basic IV it linearizes
	Scale int64   // bytes of pointer motion per basis unit
	Step  int64   // bytes per loop iteration (Scale * basis step)
	Init  rtl.Reg // register holding the pointer's value at loop entry
}

// StrengthReduce rewrites every IV-affine memory address in the loop to use
// a pointer induction variable: the invariant part is computed once in the
// preheader, the pointer advances by a constant in the latch, and the
// memory reference becomes base+displacement. Returns the pointer IVs
// created. The loop must have a preheader.
func (info *FlatInfo) StrengthReduce() []*PtrIV {
	l := info.Loop
	if l.Preheader < 0 || len(info.BasicIVs) == 0 {
		return nil
	}
	f := info.Graph.F
	info.du = dataflow.ComputeFlatDefUse(f)
	// Collect rewritable references grouped by affine key.
	type ref struct {
		i    int32
		disp int64 // decomposed constant part
	}
	type group struct {
		ivReg rtl.Reg
		scale int64
		rest  affine
		refs  []ref
	}
	groups := make(map[string]*group)
	lb := &f.Blocks[l.Latch]
	for _, bi := range l.Blocks {
		if bi == l.Latch {
			continue // latch runs after the increments; iteration-start values don't apply
		}
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if !f.IsMem(i) {
				continue
			}
			base, ok := f.A[i].IsReg()
			if !ok {
				continue
			}
			if info.Invariant(base) || info.BasicIVs[base] != nil {
				continue // already base+disp form
			}
			a, ok := info.decompose(base, 0)
			if !ok {
				continue
			}
			ivReg, scale, rest, ok := info.splitIV(a)
			if !ok {
				continue
			}
			// All IV increments must be in the latch so the decomposition
			// ("value at iteration start") is valid at this use.
			valid := true
			for _, inc := range info.BasicIVs[ivReg].Incs {
				if inc < lb.InstrStart || inc >= lb.InstrEnd {
					valid = false
					break
				}
			}
			if !valid {
				continue
			}
			k := keyOf(ivReg, scale, rest)
			g := groups[k]
			if g == nil {
				g = &group{}
				groups[k] = g
			}
			g.ivReg, g.scale, g.rest = ivReg, scale, rest
			g.refs = append(g.refs, ref{i: i, disp: rest.c})
		}
	}
	if len(groups) == 0 {
		return nil
	}
	var keys []string
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var pre, latch []rtl.FlatInstr
	var ptrs []*PtrIV
	for _, k := range keys {
		g := groups[k]
		iv := info.BasicIVs[g.ivReg]
		// Preheader: p = sum(coeff*term) + scale*iv  (constant folded out;
		// it rides in each reference's displacement).
		p := f.NewReg()
		acc := emitAffineSum(f, &pre, g.rest, g.ivReg, g.scale)
		pre = append(pre, rtl.FlatOp(rtl.Mov, p, acc, rtl.Operand{}))
		// Latch: p += scale*step.
		step := g.scale * iv.Step
		latch = append(latch, rtl.FlatOp(rtl.Add, p, rtl.R(p), rtl.C(step)))
		for _, r := range g.refs {
			f.A[r.i] = rtl.R(p)
			f.Disp[r.i] += r.disp
		}
		ptrs = append(ptrs, &PtrIV{Reg: p, Basis: g.ivReg, Scale: g.scale, Step: step, Init: p})
	}
	info.appendInstrs(l.Preheader, pre)
	info.appendInstrs(l.Latch, latch)
	return ptrs
}

// appendInstrs inserts ins before block bi's terminator and shifts the
// instruction indices the analysis recorded past the insertion point.
func (info *FlatInfo) appendInstrs(bi int32, ins []rtl.FlatInstr) {
	f := info.Graph.F
	b := &f.Blocks[bi]
	at := b.InstrEnd
	if _, _, ok := f.TermIdx(bi); ok {
		at--
	}
	f.SpliceInstrs(bi, at-b.InstrStart, 0, ins)
	n := int32(len(ins))
	shift := func(i *int32) {
		if *i >= at {
			*i += n
		}
	}
	for _, iv := range info.BasicIVs {
		for k := range iv.Incs {
			shift(&iv.Incs[k])
		}
	}
	if c := info.Control; c != nil {
		shift(&c.Cmp)
		shift(&c.Branch)
	}
}

// emitAffineSum materializes sum(coeff*term) + ivScale*iv (without the
// constant part) by appending instructions to out, and returns an operand
// holding the value.
func emitAffineSum(f *rtl.FlatFn, out *[]rtl.FlatInstr, rest affine, ivReg rtl.Reg, ivScale int64) rtl.Operand {
	type kv struct {
		r rtl.Reg
		c int64
	}
	kvs := []kv{{ivReg, ivScale}}
	var rs []kv
	for r, c := range rest.terms {
		rs = append(rs, kv{r, c})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].r < rs[j].r })
	kvs = append(kvs, rs...)
	var acc rtl.Operand
	for _, e := range kvs {
		var term rtl.Operand
		if e.c == 1 {
			term = rtl.R(e.r)
		} else {
			t := f.NewReg()
			*out = append(*out, rtl.FlatOp(rtl.Mul, t, rtl.R(e.r), rtl.C(e.c)))
			term = rtl.R(t)
		}
		if acc.Kind == rtl.KindNone {
			acc = term
		} else {
			t := f.NewReg()
			*out = append(*out, rtl.FlatOp(rtl.Add, t, acc, term))
			acc = rtl.R(t)
		}
	}
	return acc
}

// ReplaceTest performs linear function test replacement: when the loop's
// controlling comparison tests a basic IV that a pointer IV linearizes, the
// test is rewritten to compare the pointer against a bound computed once in
// the preheader. This is what frees EliminateInductionVariables (dead-IV
// removal in the opt package) to delete the counter. Reports whether the
// test was replaced.
func (info *FlatInfo) ReplaceTest(ptrs []*PtrIV) bool {
	ctl := info.Control
	l := info.Loop
	if ctl == nil || l.Preheader < 0 || len(ptrs) == 0 {
		return false
	}
	// Pick a pointer IV based on the controlled basic IV.
	var p *PtrIV
	for _, cand := range ptrs {
		if cand.Basis == ctl.IV {
			p = cand
			break
		}
	}
	if p == nil {
		return false
	}
	// Only strict tests stay exact under multiplication by the scale.
	if ctl.Op != rtl.SetLT && ctl.Op != rtl.SetGT {
		return false
	}
	f := info.Graph.F
	// pend = p_init + scale*(bound - iv_entry)
	diff := f.NewReg()
	scaled := f.NewReg()
	pend := f.NewReg()
	info.appendInstrs(l.Preheader, []rtl.FlatInstr{
		rtl.FlatOp(rtl.Sub, diff, ctl.Bound, rtl.R(ctl.IV)),
		rtl.FlatOp(rtl.Mul, scaled, rtl.R(diff), rtl.C(p.Scale)),
		rtl.FlatOp(rtl.Add, pend, rtl.R(p.Init), rtl.R(scaled)),
	})

	op := ctl.Op
	if p.Scale < 0 {
		op = swapCmp(op)
	}
	// Rewrite the compare in place: cond = p OP pend (continue form). When
	// the original continued on false, negate back.
	newOp := op
	if !l.Contains(f.Target[ctl.Branch]) {
		newOp = negateCmp(op)
	}
	f.Op[ctl.Cmp] = newOp
	f.A[ctl.Cmp] = rtl.R(p.Reg)
	f.B[ctl.Cmp] = rtl.R(pend)
	f.Signed[ctl.Cmp] = true
	// Update control info to reflect the pointer-based test.
	info.Control = &FlatControl{
		Cmp: ctl.Cmp, Branch: ctl.Branch, IV: p.Reg, Bound: rtl.R(pend),
		Op: op, Signed: true,
	}
	return true
}

// Remark summarizes this loop's induction-variable analysis as an Analysis
// telemetry remark: how many basic IVs were found, whether the controlling
// trip test was recognized, and the control IV's step. Passes emit it so
// every downstream accept/reject (unrolling, coalescing) can be read
// against the analysis facts it depended on.
func (info *FlatInfo) Remark(pass, fn string) telemetry.Remark {
	rem := telemetry.Remark{
		Kind: telemetry.Analysis,
		Pass: pass,
		Fn:   fn,
		Name: "LoopAnalysis",
		Args: map[string]int64{"basic_ivs": int64(len(info.BasicIVs))},
	}
	if l := info.Loop; l != nil && l.Header >= 0 {
		g := info.Graph
		rem.Loop = g.P.SymName(g.F.Blocks[l.Header].Name)
	}
	if info.Control != nil {
		rem.Reason = "control:recognized"
		if biv := info.BasicIVs[info.Control.IV]; biv != nil {
			rem.Args["control_step"] = biv.Step
		}
	} else {
		rem.Reason = "control:unrecognized"
	}
	return rem
}

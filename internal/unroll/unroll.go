// Package unroll implements UnRollLoopIfProfitable from Figure 2 of the
// paper: loop unrolling sized so the unrolled body exposes enough
// consecutive narrow references for coalescing while still fitting the
// instruction cache, together with a remainder loop so any trip count is
// handled. Where the paper's example bails out to the rolled loop when the
// trip count is not a multiple of the unroll factor, this implementation
// keeps the rolled loop as a post-loop remainder, which also keeps the main
// loop's first access at the (alignment-checked) partition base.
package unroll

import (
	"fmt"

	"macc/internal/cfg"
	"macc/internal/iv"
	"macc/internal/machine"
	"macc/internal/rtl"
)

// Canonical is the rolled-loop shape the unroller accepts: a header holding
// the trip test, one straight-line body block, and a latch holding the
// induction updates. Fields are block indices.
type Canonical struct {
	Preheader int32
	Header    int32
	Body      int32
	Latch     int32
	Exit      int32
}

// Shape checks whether loop l of f is canonical and decomposes it.
func Shape(f *rtl.FlatFn, l *cfg.FlatLoop) (Canonical, bool) {
	if len(l.Blocks) != 3 || l.Preheader < 0 {
		return Canonical{}, false
	}
	header, latch := l.Header, l.Latch
	body := int32(-1)
	for _, b := range l.Blocks {
		if b != header && b != latch {
			body = b
		}
	}
	if body < 0 || header == latch {
		return Canonical{}, false
	}
	ht, op, ok := f.TermIdx(header)
	if !ok || op != rtl.Branch {
		return Canonical{}, false
	}
	var exit int32
	switch {
	case f.Target[ht] == body && !l.Contains(f.Else[ht]):
		exit = f.Else[ht]
	case f.Else[ht] == body && !l.Contains(f.Target[ht]):
		exit = f.Target[ht]
	default:
		return Canonical{}, false
	}
	if bt, op, ok := f.TermIdx(body); !ok || op != rtl.Jump || f.Target[bt] != latch {
		return Canonical{}, false
	}
	if lt, op, ok := f.TermIdx(latch); !ok || op != rtl.Jump || f.Target[lt] != header {
		return Canonical{}, false
	}
	return Canonical{
		Preheader: l.Preheader, Header: header, Body: body, Latch: latch, Exit: exit,
	}, true
}

// Unrolled describes the transformed code: a guarded main loop that runs
// factor iterations per trip, falling back into the original rolled loop
// for the remainder. Fields are block indices.
type Unrolled struct {
	Factor    int
	Preheader int32 // jumps to the guard header
	Header    int32 // guard test: room for a full group?
	Body      int32 // factor copies of body+latch work, the back edge
	Remainder int32 // the original rolled loop's header
}

// blockLen returns the number of instructions in block bi.
func blockLen(f *rtl.FlatFn, bi int32) int {
	return int(f.Blocks[bi].InstrEnd - f.Blocks[bi].InstrStart)
}

// ChooseFactor picks the unroll factor for memory coalescing on machine m:
// the widest ratio word/width over the loop's narrow memory references,
// capped so the unrolled body fits the instruction cache (the paper's
// heuristic) and capped at 16 to bound register pressure. It returns 1 when
// unrolling is pointless (no narrow references or non-counted loop).
func ChooseFactor(m *machine.Machine, f *rtl.FlatFn, c Canonical, info *iv.FlatInfo) int {
	if info.Control == nil {
		return 1
	}
	factor := 1
	b := &f.Blocks[c.Body]
	for i := b.InstrStart; i < b.InstrEnd; i++ {
		if f.IsMem(i) && f.Width[i] < m.WordBytes {
			if mf := m.MaxCoalesceFactor(f.Width[i]); mf > factor {
				factor = mf
			}
		}
	}
	if factor == 1 {
		return 1
	}
	// Instruction-cache heuristic: if the rolled loop fits, the unrolled
	// loop must fit too.
	header, body, latch := blockLen(f, c.Header), blockLen(f, c.Body), blockLen(f, c.Latch)
	if (header+body+latch)*m.BytesPerInstr <= m.ICacheBytes {
		for factor > 1 && (header+factor*(body+latch))*m.BytesPerInstr > m.ICacheBytes {
			factor /= 2
		}
	}
	if factor > 16 {
		factor = 16
	}
	return factor
}

// Unroll builds the guarded unrolled loop in function fi of fp. The loop
// must be canonical, have a controlling test over a basic IV, and have all
// IV updates in the latch. The rolled loop stays in place as the remainder
// loop; the two new blocks are appended to the block table.
func Unroll(fp *rtl.FlatProgram, fi int, c Canonical, info *iv.FlatInfo, factor int) (*Unrolled, error) {
	if factor < 2 {
		return nil, fmt.Errorf("unroll factor %d", factor)
	}
	ctl := info.Control
	if ctl == nil {
		return nil, fmt.Errorf("loop has no recognized trip test")
	}
	if ctl.Op != rtl.SetLT && ctl.Op != rtl.SetGT {
		return nil, fmt.Errorf("trip test %s is not strict", ctl.Op)
	}
	civ := info.BasicIVs[ctl.IV]
	if civ == nil {
		return nil, fmt.Errorf("control register is not a basic IV")
	}
	f := &fp.Fns[fi]
	lb := f.Blocks[c.Latch]
	for _, bi := range info.BasicIVs {
		for _, inc := range bi.Incs {
			if inc < lb.InstrStart || inc >= lb.InstrEnd {
				return nil, fmt.Errorf("IV %s updated outside the latch", bi.Reg)
			}
		}
	}

	uheader := f.NewBlock(fp.Intern(fp.Syms[f.Blocks[c.Header].Name] + ".unrolled"))
	ubody := f.NewBlock(fp.Intern(fp.Syms[f.Blocks[c.Body].Name] + ".unrolled"))

	// Guard: continue into the unrolled body only if a full group of
	// `factor` iterations remains: IV + (factor-1)*step OP bound.
	last := f.NewReg()
	cond := f.NewReg()
	cmp := rtl.FlatOp(ctl.Op, cond, rtl.R(last), ctl.Bound)
	cmp.Signed = ctl.Signed
	br := rtl.MkInstr(rtl.Branch)
	br.A, br.Target, br.Else = rtl.R(cond), ubody, c.Header
	f.SpliceInstrs(uheader, 0, 0, []rtl.FlatInstr{
		rtl.FlatOp(rtl.Add, last, rtl.R(ctl.IV), rtl.C(int64(factor-1)*civ.Step)),
		cmp, br,
	})

	// Body: factor copies of (body work, latch work), with per-copy
	// renaming of defined registers so copies are independent for the
	// scheduler; loop-carried registers are restored by mov-backs that the
	// address folder and DCE later collapse. The copies are laid down
	// first (each call with its own argument payload) and renamed in place.
	var copies []rtl.FlatInstr
	copyBlock := func(bi int32) {
		b := f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if f.Op[i].IsTerminator() {
				continue
			}
			cp := f.Instr(i)
			if cp.CallIdx >= 0 {
				cp.CallIdx = f.CloneCall(cp.CallIdx)
			}
			copies = append(copies, cp)
		}
	}
	for i := 0; i < factor; i++ {
		copyBlock(c.Body)
		copyBlock(c.Latch)
	}
	f.SpliceInstrs(ubody, 0, 0, copies)
	cur := make(map[rtl.Reg]rtl.Reg)
	var renamed []rtl.Reg // in first-rename order
	ub := f.Blocks[ubody]
	for i := ub.InstrStart; i < ub.InstrEnd; i++ {
		for k, n := 0, f.NumSrcs(i); k < n; k++ {
			if o := f.Src(i, k); o.Kind == rtl.KindReg {
				if nr, exists := cur[o.Reg]; exists {
					o.Reg = nr
				}
			}
		}
		if d, ok := f.Def(i); ok {
			if _, seen := cur[d]; !seen {
				renamed = append(renamed, d)
			}
			nd := f.NewReg()
			cur[d] = nd
			f.Dst[i] = nd
		}
	}
	// Restore loop-carried/live-out registers to their canonical names.
	tail := make([]rtl.FlatInstr, 0, len(renamed)+1)
	for _, r := range renamed {
		tail = append(tail, rtl.FlatOp(rtl.Mov, r, rtl.R(cur[r]), rtl.Operand{}))
	}
	jmp := rtl.MkInstr(rtl.Jump)
	jmp.Target = uheader
	f.SpliceInstrs(ubody, int32(blockLen(f, ubody)), 0, append(tail, jmp))

	// Route the preheader through the guard; the rolled loop remains as
	// the remainder, entered when fewer than `factor` iterations remain.
	if pt, _, ok := f.TermIdx(c.Preheader); ok {
		if f.Target[pt] == c.Header {
			f.Target[pt] = uheader
		}
		if f.Else[pt] == c.Header {
			f.Else[pt] = uheader
		}
	}

	return &Unrolled{
		Factor:    factor,
		Preheader: c.Preheader,
		Header:    uheader,
		Body:      ubody,
		Remainder: c.Header,
	}, nil
}

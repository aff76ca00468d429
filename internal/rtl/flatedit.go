package rtl

// Flat editing layer: index-based mutation primitives over FlatFn, the only
// form the optimization passes run on: in-place field rewrites for
// per-instruction transforms, kill markers plus one compaction sweep for
// deletion passes, and block-range splicing for the surgery passes
// (preheaders, loop replication, preheader checks, spill code).
//
// Invariants preserved by every primitive here (and checked by VerifyFn):
// instruction arrays stay parallel, block ranges stay contiguous in block
// order, and (Op==Call) == (CallIdx>=0). Control flow is the terminators'
// Target/Else indices and nothing else, so no primitive has edge state to
// keep current; cfg.FlatGraph derives the edges when a pass needs them.

import "slices"

// FlatInstr is the value form of one instruction, gathered from / scattered
// to the parallel arrays. Target and Else are block indices (-1 none);
// CallIdx indexes FlatFn.Calls (-1 for non-calls).
type FlatInstr struct {
	Op      Op
	Dst     Reg
	A, B, C Operand
	Width   Width
	Signed  bool
	Disp    int64
	Target  int32
	Else    int32
	CallIdx int32
}

// MkInstr returns a FlatInstr with no control-flow edges and no call
// attachment — the flat equivalent of a zero rtl.Instr literal, whose nil
// Target/Else pointers map to -1 indices.
func MkInstr(op Op) FlatInstr {
	return FlatInstr{Op: op, Target: -1, Else: -1, CallIdx: -1}
}

// FlatOp builds the value form of a register instruction: dst = a op b (a
// Mov leaves b empty). It is the flat BinI/MovI.
func FlatOp(op Op, dst Reg, a, b Operand) FlatInstr {
	in := MkInstr(op)
	in.Dst = dst
	in.A = a
	in.B = b
	return in
}

// Instr gathers instruction i into value form.
func (f *FlatFn) Instr(i int32) FlatInstr {
	return FlatInstr{
		Op: f.Op[i], Dst: f.Dst[i], A: f.A[i], B: f.B[i], C: f.C[i],
		Width: f.Width[i], Signed: f.Signed[i], Disp: f.Disp[i],
		Target: f.Target[i], Else: f.Else[i], CallIdx: f.CallIdx[i],
	}
}

// SetInstr scatters value in into instruction slot i. Operands are
// canonicalized exactly as Flatten does, so a rewritten slot holds the same
// bytes Flatten would write for that instruction.
func (f *FlatFn) SetInstr(i int32, in FlatInstr) {
	f.Op[i] = in.Op
	f.Dst[i] = in.Dst
	f.A[i] = canonOperand(in.A)
	f.B[i] = canonOperand(in.B)
	f.C[i] = canonOperand(in.C)
	f.Width[i] = in.Width
	f.Signed[i] = in.Signed
	f.Disp[i] = in.Disp
	f.Target[i] = in.Target
	f.Else[i] = in.Else
	f.CallIdx[i] = in.CallIdx
}

// NumRegs mirrors Fn.NumRegs: the size of the virtual register pool.
func (f *FlatFn) NumRegs() int { return int(f.NextReg) }

// NewReg allocates a fresh virtual register from the function's pool,
// numbering registers in allocation order.
func (f *FlatFn) NewReg() Reg {
	r := f.NextReg
	f.NextReg++
	return r
}

// IsMem reports whether instruction i touches memory.
func (f *FlatFn) IsMem(i int32) bool { return f.Op[i] == Load || f.Op[i] == Store }

// TermIdx returns the index of block bi's terminator and its opcode; ok is
// false for an empty or unterminated block.
func (f *FlatFn) TermIdx(bi int32) (int32, Op, bool) {
	return f.termOf(&f.Blocks[bi])
}

// Intern returns the symbol for name in the program's table, appending it if
// new. A linear scan: the table is small and interning is rare (fresh block
// labels only).
func (fp *FlatProgram) Intern(name string) Sym {
	for i, s := range fp.Syms {
		if s == name {
			return Sym(i)
		}
	}
	fp.Syms = append(fp.Syms, name)
	return Sym(len(fp.Syms) - 1)
}

// NewBlock appends a fresh empty block (at the end of the block table, with
// an empty instruction range at the end of the arrays) and returns its
// index. ID assignment advances NextBlk exactly as Fn.NewBlock does.
func (f *FlatFn) NewBlock(name Sym) int32 {
	end := int32(len(f.Op))
	f.Blocks = append(f.Blocks, FlatBlock{
		ID: f.NextBlk, Name: name, InstrStart: end, InstrEnd: end,
	})
	f.NextBlk++
	return int32(len(f.Blocks) - 1)
}

// SpliceInstrs replaces del instructions at block-relative position rel of
// block bi with ins, shifting later instructions and adjusting every block
// range after the edit. Block indices are stable across a splice, so cached
// Target/Else values and analysis results keyed by block stay valid; only
// absolute instruction offsets move.
func (f *FlatFn) SpliceInstrs(bi int32, rel int32, del int32, ins []FlatInstr) {
	b := &f.Blocks[bi]
	at := b.InstrStart + rel
	grow := int32(len(ins)) - del
	spliceSlice(&f.Op, at, del, len(ins))
	spliceSlice(&f.Dst, at, del, len(ins))
	spliceSlice(&f.A, at, del, len(ins))
	spliceSlice(&f.B, at, del, len(ins))
	spliceSlice(&f.C, at, del, len(ins))
	spliceSlice(&f.Width, at, del, len(ins))
	spliceSlice(&f.Signed, at, del, len(ins))
	spliceSlice(&f.Disp, at, del, len(ins))
	spliceSlice(&f.Target, at, del, len(ins))
	spliceSlice(&f.Else, at, del, len(ins))
	spliceSlice(&f.CallIdx, at, del, len(ins))
	for j, in := range ins {
		f.SetInstr(at+int32(j), in)
	}
	b.InstrEnd += grow
	for i := int(bi) + 1; i < len(f.Blocks); i++ {
		f.Blocks[i].InstrStart += grow
		f.Blocks[i].InstrEnd += grow
	}
}

// spliceSlice opens (or closes) a hole of n-del elements at position at.
// The hole's contents are unspecified; SpliceInstrs overwrites them.
func spliceSlice[T any](s *[]T, at, del int32, n int) {
	old := *s
	grow := n - int(del)
	switch {
	case grow > 0:
		old = slices.Grow(old, grow)[:len(old)+grow]
		copy(old[int(at)+n:], old[at+del:])
	case grow < 0:
		copy(old[int(at)+n:], old[at+del:])
		old = old[:len(old)+grow]
	}
	*s = old
}

// AppendInstr inserts ins, in order, before block bi's terminator when one
// exists (the flat Block.Append), otherwise at the block's end.
func (f *FlatFn) AppendInstr(bi int32, ins ...FlatInstr) {
	b := &f.Blocks[bi]
	rel := b.InstrEnd - b.InstrStart
	if _, _, ok := f.termOf(b); ok {
		rel--
	}
	f.SpliceInstrs(bi, rel, 0, ins)
}

// CloneCall duplicates call payload ci — the callee and a fresh copy of its
// argument operands — and returns the new payload's index, so a copied call
// instruction owns its arguments.
func (f *FlatFn) CloneCall(ci int32) int32 {
	c := f.Calls[ci]
	as := int32(len(f.Args))
	f.Args = append(f.Args, f.Args[c.ArgStart:c.ArgEnd]...)
	f.Calls = append(f.Calls, FlatCall{Callee: c.Callee, ArgStart: as, ArgEnd: int32(len(f.Args))})
	return int32(len(f.Calls) - 1)
}

// Compact removes every instruction whose kill mark is set — the one
// compaction sweep that follows a marking pass. Block ranges shrink in
// place; the Calls/Args tables are rebuilt from the surviving call
// instructions so call indices stay dense and the (Op==Call) == (CallIdx>=0)
// invariant holds.
func (f *FlatFn) Compact(kill []bool) {
	var newCalls []FlatCall
	var newArgs []Operand
	w := int32(0)
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		start := w
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if kill[i] {
				continue
			}
			ci := f.CallIdx[i]
			if ci >= 0 {
				c := f.Calls[ci]
				as := int32(len(newArgs))
				newArgs = append(newArgs, f.Args[c.ArgStart:c.ArgEnd]...)
				ci = int32(len(newCalls))
				newCalls = append(newCalls, FlatCall{Callee: c.Callee, ArgStart: as, ArgEnd: int32(len(newArgs))})
			}
			if w != i {
				f.Op[w] = f.Op[i]
				f.Dst[w] = f.Dst[i]
				f.A[w] = f.A[i]
				f.B[w] = f.B[i]
				f.C[w] = f.C[i]
				f.Width[w] = f.Width[i]
				f.Signed[w] = f.Signed[i]
				f.Disp[w] = f.Disp[i]
				f.Target[w] = f.Target[i]
				f.Else[w] = f.Else[i]
			}
			f.CallIdx[w] = ci
			w++
		}
		b.InstrStart, b.InstrEnd = start, w
	}
	f.truncateInstrs(w)
	f.Calls = newCalls
	f.Args = newArgs
}

func (f *FlatFn) truncateInstrs(n int32) {
	f.Op = f.Op[:n]
	f.Dst = f.Dst[:n]
	f.A = f.A[:n]
	f.B = f.B[:n]
	f.C = f.C[:n]
	f.Width = f.Width[:n]
	f.Signed = f.Signed[:n]
	f.Disp = f.Disp[:n]
	f.Target = f.Target[:n]
	f.Else = f.Else[:n]
	f.CallIdx = f.CallIdx[:n]
}

// RemoveBlocks drops every block whose keep mark is clear, together with its
// instruction range, remapping the Target/Else indices of the surviving
// instructions. The caller guarantees no surviving edge points at a dropped
// block (the flat RemoveUnreachable guarantees it by construction).
func (f *FlatFn) RemoveBlocks(keep []bool) {
	remap := make([]int32, len(f.Blocks))
	kill := make([]bool, len(f.Op))
	nb := int32(0)
	for bi := range f.Blocks {
		if keep[bi] {
			remap[bi] = nb
			nb++
			continue
		}
		remap[bi] = -1
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			kill[i] = true
		}
	}
	f.Compact(kill)
	kept := f.Blocks[:0]
	for bi := range f.Blocks {
		if keep[bi] {
			kept = append(kept, f.Blocks[bi])
		}
	}
	f.Blocks = kept
	for i := range f.Target {
		if t := f.Target[i]; t >= 0 {
			f.Target[i] = remap[t]
		}
		if e := f.Else[i]; e >= 0 {
			f.Else[i] = remap[e]
		}
	}
}

// CloneRegion deep-copies a set of blocks into function fi: append one fresh
// block per region block (in region order, so block IDs are assigned in region
// order), then copy the instructions, remapping Target/Else edges that stay
// inside the region and duplicating call payloads so the Calls/Args tables
// keep one entry per call instruction. Returns the original→clone index map.
func (fp *FlatProgram) CloneRegion(fi int, blocks []int32, nameSuffix string) map[int32]int32 {
	f := &fp.Fns[fi]
	m := make(map[int32]int32, len(blocks))
	for _, bi := range blocks {
		name := fp.Intern(fp.Syms[f.Blocks[bi].Name] + nameSuffix)
		m[bi] = f.NewBlock(name)
	}
	for _, bi := range blocks {
		b := f.Blocks[bi]
		ins := make([]FlatInstr, 0, b.InstrEnd-b.InstrStart)
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			ci := f.Instr(i)
			if ci.Target >= 0 {
				if t, ok := m[ci.Target]; ok {
					ci.Target = t
				}
			}
			if ci.Else >= 0 {
				if t, ok := m[ci.Else]; ok {
					ci.Else = t
				}
			}
			if ci.CallIdx >= 0 {
				ci.CallIdx = f.CloneCall(ci.CallIdx)
			}
			ins = append(ins, ci)
		}
		f.SpliceInstrs(m[bi], 0, 0, ins)
	}
	return m
}

// TruncateBlocks removes blocks n.. (used to discard a replicated region
// appended at the end). Register and block-ID counters deliberately stay
// advanced: an unprofitable replication still consumes the names it drew,
// which keeps later names, and so the printed program, stable.
func (f *FlatFn) TruncateBlocks(n int32) {
	if int(n) >= len(f.Blocks) {
		return
	}
	cut := f.Blocks[n].InstrStart
	f.truncateInstrs(cut)
	f.Blocks = f.Blocks[:n]
	// Calls/Args referenced by dropped instructions stay as dead table
	// entries until the next Compact; every live index remains valid.
}

// UnflattenFn materializes one function as a private pointer graph, for
// printing, stage dumps, and bisection probes. No whole-program validation:
// the pipeline's verify checkpoints guard the image.
func (fp *FlatProgram) UnflattenFn(fi int) *Fn {
	ff := &fp.Fns[fi]
	f := &Fn{
		Name:       fp.Syms[ff.Name],
		Params:     append([]Reg(nil), ff.Params...),
		FrameBytes: int(ff.FrameBytes),
		FrameReg:   ff.FrameReg,
		nextReg:    ff.NextReg,
		nextBlk:    int(ff.NextBlk),
	}
	// One slab per kind: instructions, blocks, block pointers, each block's
	// instruction pointers and call arguments. Every slice carved from a
	// slab is capacity-capped, so appending to one cannot reach the next.
	n := ff.NumInstrs()
	nargs := 0
	for _, ci := range ff.CallIdx {
		if ci >= 0 {
			nargs += int(ff.Calls[ci].ArgEnd - ff.Calls[ci].ArgStart)
		}
	}
	islab := make([]Instr, n)
	pslab := make([]*Instr, n)
	aslab := make([]Operand, nargs)
	bslab := make([]Block, len(ff.Blocks))
	blocks := make([]*Block, len(ff.Blocks))
	for bi := range ff.Blocks {
		blocks[bi] = &bslab[bi]
	}
	for bi := range ff.Blocks {
		fb := &ff.Blocks[bi]
		b := blocks[bi]
		b.ID = int(fb.ID)
		b.Name = fp.Syms[fb.Name]
		b.Instrs = pslab[fb.InstrStart:fb.InstrEnd:fb.InstrEnd]
		for j := range b.Instrs {
			i := int(fb.InstrStart) + j
			in := &islab[i]
			in.Op = ff.Op[i]
			in.Dst = ff.Dst[i]
			in.A = ff.A[i]
			in.B = ff.B[i]
			in.C = ff.C[i]
			in.Width = ff.Width[i]
			in.Signed = ff.Signed[i]
			in.Disp = ff.Disp[i]
			if t := ff.Target[i]; t >= 0 {
				in.Target = blocks[t]
			}
			if e := ff.Else[i]; e >= 0 {
				in.Else = blocks[e]
			}
			if ci := ff.CallIdx[i]; ci >= 0 {
				c := &ff.Calls[ci]
				in.Callee = fp.Syms[c.Callee]
				if k := int(c.ArgEnd - c.ArgStart); k > 0 {
					in.Args = aslab[:k:k]
					aslab = aslab[k:]
					copy(in.Args, ff.Args[c.ArgStart:c.ArgEnd])
				}
			}
			b.Instrs[j] = in
		}
	}
	f.Blocks = blocks
	return f
}

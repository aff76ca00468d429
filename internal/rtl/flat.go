package rtl

// Flat IR: an arena-backed, index-based (struct-of-arrays) image of a
// Program. Where the pointer graph spends a heap object per instruction and
// per block, the flat form packs every function into a handful of parallel
// slices indexed by a dense instruction number: one slice per field (opcode,
// destination, operand slots, width, displacement, ...), block tables that
// address instructions by [start,end) index ranges, and an interned symbol
// table shared by function names, block labels, global names and call
// targets. Control flow lives only in the terminators' Target/Else block
// indices; cfg.FlatGraph derives successors and predecessors from them.
//
// The flat form is the canonical at-rest representation: the compile cache
// stores it (see internal/ccache and rtl/codec), the simulator predecodes
// from it directly (sim.NewFlat), and Unflatten materializes a private
// pointer graph on demand — it allocates each function's instructions in a
// single slab, which is what makes cache hits cheaper than the deep
// clone-on-hit copies it replaces.
//
// Flatten/Unflatten are lossless with respect to the printer: for any
// verifier-clean program, p.String() == must-equal
// Flatten(p).Unflatten().String(), and the simulator observes identical
// behaviour. Flatten returns errors, never panics; an image from anywhere
// else — a decoder, a hand-built test — is checked once by Verify where it
// enters the program, and only then materialized.

import "fmt"

// Sym is an index into FlatProgram.Syms, the interned string table.
type Sym int32

// FlatProgram is the struct-of-arrays image of a Program.
type FlatProgram struct {
	Syms    []string
	Globals []FlatGlobal
	Fns     []FlatFn
}

// FlatGlobal mirrors Global with an interned name.
type FlatGlobal struct {
	Name Sym
	Addr int64
	Size int64
	Init []byte
}

// FlatBlock addresses one basic block's instructions as an index range into
// the owning FlatFn's arrays.
type FlatBlock struct {
	ID         int32
	Name       Sym
	InstrStart int32 // [InstrStart, InstrEnd) into the instruction arrays
	InstrEnd   int32
}

// FlatCall is the variable-length tail of a Call instruction: the callee
// symbol and the argument operand range into FlatFn.Args.
type FlatCall struct {
	Callee   Sym
	ArgStart int32 // [ArgStart, ArgEnd) into FlatFn.Args
	ArgEnd   int32
}

// FlatFn is one function in struct-of-arrays form. All per-instruction
// slices (Op, Dst, A, B, C, Width, Signed, Disp, Target, Else, CallIdx)
// share the same length and are indexed by the dense instruction number
// assigned in block order.
type FlatFn struct {
	Name       Sym
	Params     []Reg
	FrameBytes int64
	FrameReg   Reg
	NextReg    Reg   // register counter, preserved so NewReg stays correct
	NextBlk    int32 // block-id counter, preserved so NewBlock stays correct

	Blocks []FlatBlock

	Op      []Op
	Dst     []Reg
	A, B, C []Operand
	Width   []Width
	Signed  []bool
	Disp    []int64
	Target  []int32 // taken-target block index, -1 if none
	Else    []int32 // fall-through block index, -1 if none
	CallIdx []int32 // index into Calls, -1 for non-call instructions

	Calls []FlatCall
	Args  []Operand // call argument operands, addressed by FlatCall ranges
}

// NumInstrs returns the function's dense instruction count.
func (f *FlatFn) NumInstrs() int { return len(f.Op) }

// SymName returns the interned string for s, or "" when out of range.
func (fp *FlatProgram) SymName(s Sym) string {
	if !fp.hasSym(s) {
		return ""
	}
	return fp.Syms[s]
}

// canonOperand normalizes an operand so unused fields are zero: the codec
// only transports the meaningful field, and normalizing here keeps direct
// Flatten output byte-comparable with a decode round trip.
func canonOperand(o Operand) Operand {
	switch o.Kind {
	case KindReg:
		return Operand{Kind: KindReg, Reg: o.Reg}
	case KindConst:
		return Operand{Kind: KindConst, Const: o.Const}
	default:
		return Operand{}
	}
}

type interner struct {
	syms []string
	idx  map[string]Sym
}

func (it *interner) intern(s string) Sym {
	if i, ok := it.idx[s]; ok {
		return i
	}
	i := Sym(len(it.syms))
	it.syms = append(it.syms, s)
	it.idx[s] = i
	return i
}

// Flatten converts a pointer-graph program into its flat image. It is
// strict: a Jump/Branch whose target block is not a member of the owning
// function is an error (Fn.Verify relies on this check), as is a function
// with more instructions or blocks than the 32-bit index space.
func Flatten(p *Program) (*FlatProgram, error) {
	it := &interner{idx: make(map[string]Sym)}
	fp := &FlatProgram{}
	for _, g := range p.Globals {
		init := append([]byte(nil), g.Init...)
		fp.Globals = append(fp.Globals, FlatGlobal{
			Name: it.intern(g.Name), Addr: g.Addr, Size: g.Size, Init: init,
		})
	}
	fp.Fns = make([]FlatFn, 0, len(p.Fns))
	for _, f := range p.Fns {
		ff, err := flattenFn(f, it)
		if err != nil {
			return nil, fmt.Errorf("flatten %s: %w", f.Name, err)
		}
		fp.Fns = append(fp.Fns, ff)
	}
	fp.Syms = it.syms
	return fp, nil
}

func flattenFn(f *Fn, it *interner) (FlatFn, error) {
	ff := FlatFn{
		Name:       it.intern(f.Name),
		Params:     append([]Reg(nil), f.Params...),
		FrameBytes: int64(f.FrameBytes),
		FrameReg:   f.FrameReg,
		NextReg:    f.nextReg,
		NextBlk:    int32(f.nextBlk),
	}
	nblk := len(f.Blocks)
	if nblk > 1<<30 {
		return ff, fmt.Errorf("%d blocks exceed flat index space", nblk)
	}
	blockIdx := make(map[*Block]int32, nblk)
	total := 0
	for i, b := range f.Blocks {
		blockIdx[b] = int32(i)
		total += len(b.Instrs)
	}
	if total > 1<<30 {
		return ff, fmt.Errorf("%d instructions exceed flat index space", total)
	}

	ff.Blocks = make([]FlatBlock, 0, nblk)
	ff.Op = make([]Op, 0, total)
	ff.Dst = make([]Reg, 0, total)
	ff.A = make([]Operand, 0, total)
	ff.B = make([]Operand, 0, total)
	ff.C = make([]Operand, 0, total)
	ff.Width = make([]Width, 0, total)
	ff.Signed = make([]bool, 0, total)
	ff.Disp = make([]int64, 0, total)
	ff.Target = make([]int32, 0, total)
	ff.Else = make([]int32, 0, total)
	ff.CallIdx = make([]int32, 0, total)

	resolve := func(b *Block) (int32, error) {
		if b == nil {
			return -1, nil
		}
		i, ok := blockIdx[b]
		if !ok {
			return -1, fmt.Errorf("dangling edge to block %s", b)
		}
		return i, nil
	}

	for _, b := range f.Blocks {
		fb := FlatBlock{
			ID:         int32(b.ID),
			Name:       it.intern(b.Name),
			InstrStart: int32(len(ff.Op)),
		}
		for _, in := range b.Instrs {
			tgt, err := resolve(in.Target)
			if err != nil {
				return ff, fmt.Errorf("block %s: %s: %w", b, in, err)
			}
			els, err := resolve(in.Else)
			if err != nil {
				return ff, fmt.Errorf("block %s: %s: %w", b, in, err)
			}
			ci := int32(-1)
			if in.Op == Call {
				ci = int32(len(ff.Calls))
				start := int32(len(ff.Args))
				for _, a := range in.Args {
					ff.Args = append(ff.Args, canonOperand(a))
				}
				ff.Calls = append(ff.Calls, FlatCall{
					Callee: it.intern(in.Callee), ArgStart: start, ArgEnd: int32(len(ff.Args)),
				})
			}
			ff.Op = append(ff.Op, in.Op)
			ff.Dst = append(ff.Dst, in.Dst)
			ff.A = append(ff.A, canonOperand(in.A))
			ff.B = append(ff.B, canonOperand(in.B))
			ff.C = append(ff.C, canonOperand(in.C))
			ff.Width = append(ff.Width, in.Width)
			ff.Signed = append(ff.Signed, in.Signed)
			ff.Disp = append(ff.Disp, in.Disp)
			ff.Target = append(ff.Target, tgt)
			ff.Else = append(ff.Else, els)
			ff.CallIdx = append(ff.CallIdx, ci)
		}
		fb.InstrEnd = int32(len(ff.Op))
		ff.Blocks = append(ff.Blocks, fb)
	}
	return ff, nil
}

// termOf returns the index and opcode of b's terminator instruction.
func (f *FlatFn) termOf(b *FlatBlock) (int32, Op, bool) {
	if b.InstrEnd <= b.InstrStart {
		return 0, Nop, false
	}
	i := b.InstrEnd - 1
	op := f.Op[i]
	if !op.IsTerminator() {
		return 0, Nop, false
	}
	return i, op, true
}

// Unflatten materializes a private pointer-graph Program from the flat
// image. Each function's instructions live in one slab allocation, its
// blocks in another; the result shares no mutable state with the image
// (operand slices and global initializers are copied), so callers may
// optimize it in place while the flat image stays cached.
//
// Unflatten checks nothing: fp must have passed Verify. Every image that
// reaches it has — the codec verifies what it decodes, the compile driver
// verifies what it is handed, and the pass manager verifies every function
// after every pass.
func (fp *FlatProgram) Unflatten() *Program {
	p := NewProgram()
	for gi := range fp.Globals {
		g := &fp.Globals[gi]
		p.Globals = append(p.Globals, &Global{
			Name: fp.Syms[g.Name],
			Addr: g.Addr,
			Size: g.Size,
			Init: append([]byte(nil), g.Init...),
		})
	}
	for fi := range fp.Fns {
		p.Add(fp.UnflattenFn(fi))
	}
	return p
}

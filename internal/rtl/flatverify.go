package rtl

import "fmt"

// Verify checks f against the structural invariants every pass must
// preserve by flattening it and running VerifyFn on the image, so the
// pointer graph and the flat form obey one set of rules. A jump or branch
// to a block outside f fails the flattening. It returns the first violation
// found, naming the function.
func (f *Fn) Verify() error {
	fp, err := Flatten(NewProgram(f))
	if err != nil {
		return err
	}
	return fp.VerifyFn(0)
}

// Verify checks a whole image where it enters the program: every global's
// name symbol, then every function with VerifyFn. The codec runs it on every
// decoded image and the compile driver on every image it is handed, so an
// image that passes is safe to optimize, unflatten and simulate without a
// second check. VerifyFn's errors name the function.
func (fp *FlatProgram) Verify() error {
	for gi := range fp.Globals {
		if s := fp.Globals[gi].Name; !fp.hasSym(s) {
			return fmt.Errorf("global %d: name symbol %d out of range (have %d)", gi, s, len(fp.Syms))
		}
	}
	for fi := range fp.Fns {
		if err := fp.VerifyFn(fi); err != nil {
			return err
		}
	}
	return nil
}

// VerifyFn is the only code that checks a flat function. It checks the
// image's indices, so that every consumer (the passes, UnflattenFn,
// sim.NewFlat) may index without bounds panics even on a hostile image:
// parallel instruction arrays, blocks that tile them in order, symbol,
// call-table and argument indices in range, known opcodes and operand
// kinds, and Target/Else of -1 or a real block on every instruction. It
// checks the invariants every pass must preserve: blocks end in exactly one
// terminator, operand slots match the opcode's shape, jumps and branches
// have real targets, calls name a callee, and every register named by a
// parameter, a frame, a definition, an operand slot or a call argument
// comes from the pool. Verify runs it where an image enters the program and
// the pass manager after every pass. It allocates nothing on the success
// path; failure messages are formatted lazily.
func (fp *FlatProgram) VerifyFn(fi int) error {
	f := &fp.Fns[fi]
	if !fp.hasSym(f.Name) {
		return fmt.Errorf("fn %d: name symbol %d out of range (have %d)", fi, f.Name, len(fp.Syms))
	}
	name := func() string { return fp.Syms[f.Name] }
	n := len(f.Op)
	if len(f.Dst) != n || len(f.A) != n || len(f.B) != n || len(f.C) != n ||
		len(f.Width) != n || len(f.Signed) != n || len(f.Disp) != n ||
		len(f.Target) != n || len(f.Else) != n || len(f.CallIdx) != n {
		return fmt.Errorf("%s: instruction arrays not parallel", name())
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", name())
	}
	nregs := f.NumRegs()
	for _, p := range f.Params {
		if p < 0 || int(p) >= nregs {
			return fmt.Errorf("%s: param: register %s outside pool of %d", name(), p, nregs)
		}
	}
	if f.FrameBytes > 0 && (f.FrameReg < 0 || int(f.FrameReg) >= nregs) {
		return fmt.Errorf("%s: frame: register %s outside pool of %d", name(), f.FrameReg, nregs)
	}
	for ci := range f.Calls {
		c := &f.Calls[ci]
		if !fp.hasSym(c.Callee) {
			return fmt.Errorf("%s: call %d: callee symbol %d out of range", name(), ci, c.Callee)
		}
		if c.ArgStart < 0 || c.ArgEnd < c.ArgStart || int(c.ArgEnd) > len(f.Args) {
			return fmt.Errorf("%s: call %d: argument range [%d,%d) outside %d arguments",
				name(), ci, c.ArgStart, c.ArgEnd, len(f.Args))
		}
	}
	for ai, o := range f.Args {
		if err := checkOperand(o, nregs); err != nil {
			return fmt.Errorf("%s: argument %d: %w", name(), ai, err)
		}
	}
	end := int32(0)
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if b.InstrStart != end || b.InstrEnd < b.InstrStart || int(b.InstrEnd) > n {
			return fmt.Errorf("%s: block %d: instruction range [%d,%d) does not follow %d within %d",
				name(), bi, b.InstrStart, b.InstrEnd, end, n)
		}
		if !fp.hasSym(b.Name) {
			return fmt.Errorf("%s: block %d: name symbol %d out of range", name(), bi, b.Name)
		}
		if b.InstrEnd == b.InstrStart {
			return fmt.Errorf("%s/%s: empty block", name(), fp.blockName(f, int32(bi)))
		}
		end = b.InstrEnd
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if err := fp.verifyInstr(f, i, i == b.InstrEnd-1, nregs); err != nil {
				return fmt.Errorf("%s/%s[%d] op=%s: %w", name(), fp.blockName(f, int32(bi)),
					i-b.InstrStart, f.Op[i], err)
			}
		}
	}
	if int(end) != n {
		return fmt.Errorf("%s: %d instructions not covered by blocks", name(), n-int(end))
	}
	return nil
}

// verifyInstr checks instruction i of f, the last of its block when last
// is set; VerifyFn adds the location.
func (fp *FlatProgram) verifyInstr(f *FlatFn, i int32, last bool, nregs int) error {
	op := f.Op[i]
	if op >= numOps {
		return fmt.Errorf("unknown opcode")
	}
	if ci := f.CallIdx[i]; ci < -1 || int(ci) >= len(f.Calls) || (op == Call) != (ci >= 0) {
		return fmt.Errorf("call index %d out of range or inconsistent with the opcode", ci)
	}
	if op.IsTerminator() != last {
		if last {
			return fmt.Errorf("block does not end in terminator")
		}
		return fmt.Errorf("terminator in middle of block")
	}
	if f.Dst[i] < NoReg {
		return fmt.Errorf("bad destination register %d", f.Dst[i])
	}
	if d, ok := f.Def(i); ok && int(d) >= nregs {
		return fmt.Errorf("dst: register %s outside pool of %d", d, nregs)
	}
	for _, o := range [3]*Operand{&f.A[i], &f.B[i], &f.C[i]} {
		if err := checkOperand(*o, nregs); err != nil {
			return err
		}
	}
	nb := int32(len(f.Blocks))
	for _, t := range [2]int32{f.Target[i], f.Else[i]} {
		if t < -1 || t >= nb {
			return fmt.Errorf("edge target %d outside function", t)
		}
	}
	if err := f.verifyFlatShape(i); err != nil {
		return err
	}
	switch op {
	case Jump:
		if f.Target[i] < 0 {
			return fmt.Errorf("jump target outside function")
		}
	case Branch:
		if f.Target[i] < 0 || f.Else[i] < 0 {
			return fmt.Errorf("branch target outside function")
		}
	case Call:
		if fp.Syms[f.Calls[f.CallIdx[i]].Callee] == "" {
			return fmt.Errorf("call without callee")
		}
	}
	return nil
}

// checkOperand checks an operand's kind and that a register operand comes
// from a pool of nregs registers.
func checkOperand(o Operand, nregs int) error {
	if o.Kind > KindConst {
		return fmt.Errorf("bad operand kind %d", o.Kind)
	}
	if o.Kind == KindReg && (o.Reg < 0 || int(o.Reg) >= nregs) {
		return fmt.Errorf("register %s outside pool of %d", o.Reg, nregs)
	}
	return nil
}

func (fp *FlatProgram) hasSym(s Sym) bool { return s >= 0 && int(s) < len(fp.Syms) }

func (fp *FlatProgram) blockName(f *FlatFn, bi int32) string {
	b := &f.Blocks[bi]
	if n := fp.Syms[b.Name]; n != "" {
		return n
	}
	return fmt.Sprintf("b%d", b.ID)
}

package rtl

// RenameRegs rewrites register names in the given blocks according to the
// rename map applied to both definitions and uses. Registers absent from the
// map are left untouched (they are live-in values shared with the rest of
// the function).
func RenameRegs(blocks []*Block, rename map[Reg]Reg) {
	for _, b := range blocks {
		for _, in := range b.Instrs {
			if d, ok := in.Def(); ok {
				if nr, ok := rename[d]; ok {
					in.Dst = nr
				}
			}
			for _, o := range in.SrcOperands() {
				if r, ok := o.IsReg(); ok {
					if nr, ok := rename[r]; ok {
						o.Reg = nr
					}
				}
			}
		}
	}
}

// Clone deep-copies the whole function.
func (f *Fn) Clone() *Fn {
	nf := &Fn{Name: f.Name, nextReg: f.nextReg, nextBlk: f.nextBlk,
		FrameBytes: f.FrameBytes, FrameReg: f.FrameReg}
	nf.Params = append([]Reg(nil), f.Params...)
	m := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{ID: b.ID, Name: b.Name}
		m[b] = nb
		nf.Blocks = append(nf.Blocks, nb)
	}
	for _, b := range f.Blocks {
		nb := m[b]
		for _, in := range b.Instrs {
			cp := in.Clone()
			if cp.Target != nil {
				cp.Target = m[cp.Target]
			}
			if cp.Else != nil {
				cp.Else = m[cp.Else]
			}
			nb.Instrs = append(nb.Instrs, cp)
		}
	}
	return nf
}

// RedirectEdges replaces every control-flow edge in the function that points
// at from with an edge to to.
func (f *Fn) RedirectEdges(from, to *Block) {
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		if t.Target == from {
			t.Target = to
		}
		if t.Else == from {
			t.Else = to
		}
	}
}

package rtl

import (
	"fmt"
	"testing"
)

// Tests for FlatSnapshot, the flat pass manager's rollback journal.

// snapFn builds a function with arithmetic, memory traffic, a call, and
// control flow so every instruction shape passes through the journal.
func snapFn() *Fn {
	f := NewFn("f", 2)
	a, b := f.Params[0], f.Params[1]
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	r1, r2, r3 := f.NewReg(), f.NewReg(), f.NewReg()
	f.Entry().Instrs = append(f.Entry().Instrs,
		MovI(r1, C(0)),
		JumpI(loop))
	loop.Instrs = append(loop.Instrs,
		LoadI(r2, R(a), 4, W2, true),
		BinI(Add, r1, R(r1), R(r2)),
		StoreI(R(b), 0, R(r1), W8),
		&Instr{Op: Call, Dst: r3, Callee: "g", Args: []Operand{R(r1), C(7)}},
		BinI(SetLT, r3, R(r1), C(100)),
		BranchI(R(r3), loop, exit))
	exit.Instrs = append(exit.Instrs, RetI(R(r1)))
	return f
}

// mutations is a catalogue of pass-like edits, applied to function 0 of a
// flat program with the primitives the passes use (SpliceInstrs, NewBlock,
// AppendInstr, CloneRegion, RemoveBlocks, SetInstr, direct field writes).
// Each tolerates an arbitrary current shape (the composed tests apply them
// to already-mutated functions), mutating only when the structure it
// targets exists.
var mutations = []struct {
	name string
	do   func(fp *FlatProgram, f *FlatFn)
}{
	{"in-place operand rewrite", func(fp *FlatProgram, f *FlatFn) {
		for _, b := range f.Blocks {
			if b.InstrEnd-b.InstrStart > 1 {
				f.A[b.InstrStart+1] = C(42)
				return
			}
		}
	}},
	{"in-place opcode flip", func(fp *FlatProgram, f *FlatFn) {
		for i, op := range f.Op {
			if op == Add {
				f.Op[i] = Sub
				return
			}
		}
	}},
	{"call args rewrite", func(fp *FlatProgram, f *FlatFn) {
		for i, op := range f.Op {
			if c := f.CallIdx[i]; op == Call && f.Calls[c].ArgEnd-f.Calls[c].ArgStart > 1 {
				f.Args[f.Calls[c].ArgStart+1] = C(99)
				return
			}
		}
	}},
	{"instruction insert", func(fp *FlatProgram, f *FlatFn) {
		in := FlatOp(Mov, f.NewReg(), C(5), Operand{})
		f.SpliceInstrs(int32(len(f.Blocks)-1), 0, 0, []FlatInstr{in})
	}},
	{"instruction remove", func(fp *FlatProgram, f *FlatFn) {
		for bi, b := range f.Blocks {
			if b.InstrEnd-b.InstrStart > 1 {
				f.SpliceInstrs(int32(bi), 0, 1, nil)
				return
			}
		}
	}},
	{"drop terminator", func(fp *FlatProgram, f *FlatFn) {
		if b := f.Blocks[len(f.Blocks)-1]; b.InstrEnd > b.InstrStart {
			f.SpliceInstrs(int32(len(f.Blocks)-1), b.InstrEnd-b.InstrStart-1, 1, nil)
		}
	}},
	{"retarget branch", func(fp *FlatProgram, f *FlatFn) {
		for bi := range f.Blocks {
			if ti, op, ok := f.TermIdx(int32(bi)); ok && op == Branch {
				in := f.Instr(ti)
				in.Target = int32(len(f.Blocks) - 1)
				f.SetInstr(ti, in)
				return
			}
		}
	}},
	{"new block and rewire", func(fp *FlatProgram, f *FlatFn) {
		last := int32(len(f.Blocks) - 1)
		nb := f.NewBlock(fp.Intern("detour"))
		redirect(f, last, nb)
		jump := MkInstr(Jump)
		jump.Target = last
		f.AppendInstr(nb, jump)
	}},
	{"remove block", func(fp *FlatProgram, f *FlatFn) {
		if len(f.Blocks) < 3 {
			return
		}
		redirect(f, 1, 2)
		removeBlock(f, 1)
	}},
	{"reorder blocks", func(fp *FlatProgram, f *FlatFn) {
		if len(f.Blocks) < 3 {
			return
		}
		// Move block 1 to the end: copy it, send its edges to the copy,
		// drop the original. With three blocks that swaps 1 and 2.
		id := f.Blocks[1].ID
		moved := fp.CloneRegion(0, []int32{1}, "")[1]
		f.Blocks[moved].ID = id
		redirect(f, 1, moved)
		removeBlock(f, 1)
	}},
	{"frame and params", func(fp *FlatProgram, f *FlatFn) {
		f.FrameBytes = 64
		f.FrameReg = f.NewReg()
		if len(f.Params) > 1 {
			f.Params = f.Params[:1]
		}
	}},
	{"rename registers", func(fp *FlatProgram, f *FlatFn) {
		for i := range f.Op {
			if d, ok := f.Def(int32(i)); ok && d == 2 {
				f.Dst[i] = 9
			}
			for k, n := 0, f.NumSrcs(int32(i)); k < n; k++ {
				if o := f.Src(int32(i), k); o.Kind == KindReg && o.Reg == 2 {
					o.Reg = 9
				}
			}
		}
		f.NextReg = max(f.NextReg, 10)
	}},
}

// redirect points every jump and branch edge into block from at block to.
func redirect(f *FlatFn, from, to int32) {
	for i := range f.Target {
		if f.Target[i] == from {
			f.Target[i] = to
		}
		if f.Else[i] == from {
			f.Else[i] = to
		}
	}
}

// removeBlock drops block bi with its instructions.
func removeBlock(f *FlatFn, bi int32) {
	keep := make([]bool, len(f.Blocks))
	for k := range keep {
		keep[k] = k != int(bi)
	}
	f.RemoveBlocks(keep)
}

// flatSnapFn is snapFn as a one-function flat program.
func flatSnapFn(t *testing.T) *FlatProgram {
	t.Helper()
	fp, err := Flatten(NewProgram(snapFn()))
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// mutate applies a mutation to function 0 of fp.
func mutate(fp *FlatProgram, do func(*FlatProgram, *FlatFn)) {
	do(fp, &fp.Fns[0])
}

// text renders function 0 of fp, printed and as its raw arrays (which also
// hold what the printer leaves out, such as a jump's operands or a dead
// call-table entry), together with the symbol-table size, which a rollback
// must restore too.
func text(fp *FlatProgram) string {
	return fmt.Sprintf("%s%+v\n[%d syms]\n", fp.UnflattenFn(0), fp.Fns[0], len(fp.Syms))
}

// TestSnapshotRestoreIsByteIdentical proves rollback through the journal
// restores the function exactly, for every mutation shape.
func TestSnapshotRestoreIsByteIdentical(t *testing.T) {
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			fp := flatSnapFn(t)
			want := text(fp)
			snap := NewFlatSnapshot(fp, 0)
			mutate(fp, m.do)
			if text(fp) == want {
				t.Fatalf("%s changed nothing", m.name)
			}
			snap.Restore()
			if got := text(fp); got != want {
				t.Errorf("restore not byte-identical after %s:\n--- got ---\n%s--- want ---\n%s", m.name, got, want)
			}
			if err := fp.VerifyFn(0); err != nil {
				t.Errorf("restored function does not verify: %v", err)
			}
		})
	}
}

// TestSnapshotUpdateAdvancesBaseline: a committed mutation becomes the new
// rollback point, and a later failed mutation rolls back to it — the
// pipeline's snapshot-after-success, restore-after-failure protocol.
func TestSnapshotUpdateAdvancesBaseline(t *testing.T) {
	for _, good := range mutations {
		for _, bad := range mutations {
			t.Run(good.name+"/then/"+bad.name, func(t *testing.T) {
				fp := flatSnapFn(t)
				snap := NewFlatSnapshot(fp, 0)
				mutate(fp, good.do)
				snap.Update()
				want := text(fp)
				mutate(fp, bad.do)
				snap.Restore()
				if got := text(fp); got != want {
					t.Errorf("rollback after committed %q + failed %q:\n--- got ---\n%s--- want ---\n%s",
						good.name, bad.name, got, want)
				}
			})
		}
	}
}

// TestSnapshotRepeatedRestore: the journal stays valid across multiple
// rollbacks, as the pipeline needs when several passes fail in sequence.
func TestSnapshotRepeatedRestore(t *testing.T) {
	fp := flatSnapFn(t)
	want := text(fp)
	snap := NewFlatSnapshot(fp, 0)
	for i := 0; i < 3; i++ {
		for _, m := range mutations {
			mutate(fp, m.do)
		}
		snap.Restore()
		if got := text(fp); got != want {
			t.Fatalf("round %d: restore diverged:\n%s", i, got)
		}
	}
}

// TestSnapshotCleanUpdateIsFree: committing a pass that changed nothing
// must cost zero allocations — the recapture reuses the image's buffers.
func TestSnapshotCleanUpdateIsFree(t *testing.T) {
	fp := flatSnapFn(t)
	snap := NewFlatSnapshot(fp, 0)
	if allocs := testing.AllocsPerRun(100, snap.Update); allocs != 0 {
		t.Errorf("clean Update allocates %v objects per run, want 0", allocs)
	}
}

// TestSnapshotMatchesClone cross-checks the journal against an independent
// flattening of the same function under composed mutations.
func TestSnapshotMatchesClone(t *testing.T) {
	fp := flatSnapFn(t)
	snap := NewFlatSnapshot(fp, 0)
	ref := flatSnapFn(t)
	for _, m := range mutations {
		mutate(fp, m.do)
	}
	snap.Restore()
	if got, want := text(fp), text(ref); got != want {
		t.Errorf("journal restore diverges from a fresh flatten:\n--- journal ---\n%s--- fresh ---\n%s", got, want)
	}
}

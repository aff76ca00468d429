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

// mutations is a catalogue of pass-like edits, applied to the flat form
// through a per-function round trip to the pointer graph. Each
// tolerates an arbitrary current shape (the composed tests apply them to
// already-mutated functions), mutating only when the structure it targets
// exists.
var mutations = []struct {
	name string
	do   func(f *Fn)
}{
	{"in-place operand rewrite", func(f *Fn) {
		for _, b := range f.Blocks {
			if len(b.Instrs) > 1 {
				b.Instrs[1].A = C(42)
				return
			}
		}
	}},
	{"in-place opcode flip", func(f *Fn) {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == Add {
					in.Op = Sub
					return
				}
			}
		}
	}},
	{"call args rewrite", func(f *Fn) {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == Call && len(in.Args) > 1 {
					in.Args[1] = C(99)
					return
				}
			}
		}
	}},
	{"instruction insert", func(f *Fn) {
		f.Blocks[len(f.Blocks)-1].InsertAt(0, MovI(f.NewReg(), C(5)))
	}},
	{"instruction remove", func(f *Fn) {
		if b := f.Blocks[len(f.Blocks)-1]; len(b.Instrs) > 1 {
			b.RemoveAt(0)
		}
	}},
	{"drop terminator", func(f *Fn) {
		if b := f.Blocks[len(f.Blocks)-1]; len(b.Instrs) > 0 {
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
		}
	}},
	{"retarget branch", func(f *Fn) {
		for _, b := range f.Blocks {
			if t := b.Term(); t != nil && t.Op == Branch {
				t.Target = f.Blocks[len(f.Blocks)-1]
				return
			}
		}
	}},
	{"new block and rewire", func(f *Fn) {
		last := f.Blocks[len(f.Blocks)-1]
		nb := f.NewBlock("detour")
		nb.Instrs = append(nb.Instrs, JumpI(last))
		f.RedirectEdges(last, nb)
	}},
	{"remove block", func(f *Fn) {
		if len(f.Blocks) < 3 {
			return
		}
		f.RedirectEdges(f.Blocks[1], f.Blocks[2])
		f.RemoveBlock(f.Blocks[1])
	}},
	{"reorder blocks", func(f *Fn) {
		if len(f.Blocks) < 3 {
			return
		}
		f.Blocks[1], f.Blocks[2] = f.Blocks[2], f.Blocks[1]
	}},
	{"frame and params", func(f *Fn) {
		f.FrameBytes = 64
		f.FrameReg = f.NewReg()
		if len(f.Params) > 1 {
			f.Params = f.Params[:1]
		}
	}},
	{"rename registers", func(f *Fn) {
		RenameRegs(f.Blocks, map[Reg]Reg{2: 9})
		f.EnsureRegs(10)
	}},
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

// mutate applies a mutation to function 0 of fp: materialize it, edit the
// graph, and flatten the result back into the same slot, interning any
// block labels the edit introduced.
func mutate(t *testing.T, fp *FlatProgram, do func(*Fn)) {
	t.Helper()
	f := fp.UnflattenFn(0)
	do(f)
	it := &interner{syms: fp.Syms, idx: make(map[string]Sym, len(fp.Syms))}
	for i, s := range fp.Syms {
		it.idx[s] = Sym(i)
	}
	ff, err := flattenFn(f, it)
	if err != nil {
		t.Fatal(err)
	}
	fp.Syms = it.syms
	fp.Fns[0] = ff
}

// text renders function 0 of fp together with the symbol-table size, which
// a rollback must restore too.
func text(fp *FlatProgram) string {
	return fmt.Sprintf("%s[%d syms]\n", fp.UnflattenFn(0), len(fp.Syms))
}

// TestSnapshotRestoreIsByteIdentical proves rollback through the journal
// restores the function exactly, for every mutation shape.
func TestSnapshotRestoreIsByteIdentical(t *testing.T) {
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			fp := flatSnapFn(t)
			want := text(fp)
			snap := NewFlatSnapshot(fp, 0)
			mutate(t, fp, m.do)
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
				mutate(t, fp, good.do)
				snap.Update()
				want := text(fp)
				mutate(t, fp, bad.do)
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
			mutate(t, fp, m.do)
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
	allocs := testing.AllocsPerRun(100, func() {
		if dirty := snap.Update(); dirty != 0 {
			t.Fatalf("clean function reported %d dirty blocks", dirty)
		}
	})
	if allocs != 0 {
		t.Errorf("clean Update allocates %v objects per run, want 0", allocs)
	}
}

// TestSnapshotDirtyCount: Update counts exactly the blocks that changed.
func TestSnapshotDirtyCount(t *testing.T) {
	fp := flatSnapFn(t)
	snap := NewFlatSnapshot(fp, 0)
	f := &fp.Fns[0]
	f.A[f.Blocks[1].InstrStart+1] = C(42)
	if dirty := snap.Update(); dirty != 1 {
		t.Errorf("one-block edit reported %d dirty blocks, want 1", dirty)
	}
	if dirty := snap.Update(); dirty != 0 {
		t.Errorf("second Update reported %d dirty blocks, want 0", dirty)
	}
}

// TestSnapshotMatchesClone cross-checks the journal against an independent
// flattening of the same function under composed mutations.
func TestSnapshotMatchesClone(t *testing.T) {
	fp := flatSnapFn(t)
	snap := NewFlatSnapshot(fp, 0)
	ref := flatSnapFn(t)
	for _, m := range mutations {
		mutate(t, fp, m.do)
	}
	snap.Restore()
	if got, want := text(fp), text(ref); got != want {
		t.Errorf("journal restore diverges from a fresh flatten:\n--- journal ---\n%s--- fresh ---\n%s", got, want)
	}
}

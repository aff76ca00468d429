package sim

import (
	"testing"

	"macc/internal/machine"
	"macc/internal/rtl"
)

// storeFn builds a function that stores n words at base and returns the sum
// it loaded back — enough traffic to exercise the dirty watermark — as a
// flat program.
func storeFn() *rtl.FlatProgram {
	f := rtl.NewFn("work", 2) // base, n
	base, n := f.Params[0], f.Params[1]
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	i := f.NewReg()
	sum := f.NewReg()
	addr := f.NewReg()
	v := f.NewReg()
	cond := f.NewReg()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.MovI(i, rtl.C(0)),
		rtl.MovI(sum, rtl.C(0)),
		rtl.JumpI(loop))
	loop.Instrs = append(loop.Instrs,
		rtl.BinI(rtl.Mul, addr, rtl.R(i), rtl.C(4)),
		rtl.BinI(rtl.Add, addr, rtl.R(addr), rtl.R(base)),
		rtl.StoreI(rtl.R(addr), 0, rtl.R(i), rtl.W4),
		rtl.LoadI(v, rtl.R(addr), 0, rtl.W4, true),
		rtl.BinI(rtl.Add, sum, rtl.R(sum), rtl.R(v)),
		rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)),
		rtl.BinI(rtl.SetLT, cond, rtl.R(i), rtl.R(n)),
		rtl.BranchI(rtl.R(cond), loop, exit))
	exit.Instrs = append(exit.Instrs, rtl.RetI(rtl.R(sum)))
	fp, err := rtl.Flatten(&rtl.Program{Fns: []*rtl.Fn{f}})
	if err != nil {
		panic(err)
	}
	return fp
}

// TestResetZeroesDirtyRange: after a run that stored into memory, Reset must
// clear every written byte while only touching the watermarked range.
func TestResetZeroesDirtyRange(t *testing.T) {
	s := NewFlat(storeFn(), machine.Alpha(), 1<<16)
	if _, err := s.Run("work", 1024, 8); err != nil {
		t.Fatal(err)
	}
	if s.dirtyLo > 1024 || s.dirtyHi < 1024+32 {
		t.Fatalf("watermark [%d,%d) does not cover stores [1024,1056)", s.dirtyLo, s.dirtyHi)
	}
	s.Reset()
	for i, b := range s.Mem {
		if b != 0 {
			t.Fatalf("Mem[%d] = %d after Reset, want 0", i, b)
		}
	}
	if s.dirtyLo != int64(len(s.Mem)) || s.dirtyHi != 0 {
		t.Fatalf("watermark not reset: [%d,%d)", s.dirtyLo, s.dirtyHi)
	}
}

// TestResetWatermarkCoversHarnessWrites: WriteBytes and WriteInts feed the
// watermark too, so harness setup is also undone by Reset.
func TestResetWatermarkCoversHarnessWrites(t *testing.T) {
	s := NewFlat(storeFn(), machine.Alpha(), 1<<16)
	s.WriteBytes(100, []byte{1, 2, 3})
	s.WriteInts(4096, rtl.W4, []int64{7, 8, 9})
	s.Reset()
	for _, a := range []int64{100, 101, 102, 4096, 4100, 4104} {
		if s.Mem[a] != 0 {
			t.Fatalf("Mem[%d] = %d after Reset, want 0", a, s.Mem[a])
		}
	}
}

// TestRunAfterResetIsIdentical: the decoded image and recycled arena must
// make a second measurement indistinguishable from the first.
func TestRunAfterResetIsIdentical(t *testing.T) {
	s := NewFlat(storeFn(), machine.Alpha(), 1<<16)
	first, err := s.Run("work", 2048, 16)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	second, err := s.Run("work", 2048, 16)
	if err != nil {
		t.Fatal(err)
	}
	if first.Ret != second.Ret || first.Cycles != second.Cycles ||
		first.Instrs != second.Instrs || first.ICacheMisses != second.ICacheMisses ||
		first.DCacheMisses != second.DCacheMisses {
		t.Fatalf("run after Reset diverged:\nfirst:  %+v\nsecond: %+v", first.Stats, second.Stats)
	}
}

// TestReleaseReturnsZeroedArena: a released storage re-enters circulation
// with a fully zero arena, so the next NewFlat starts from clean memory even
// though only the dirty range was cleared, and it holds nothing of the
// program it ran.
func TestReleaseReturnsZeroedArena(t *testing.T) {
	const memBytes = 1 << 16
	s := NewFlat(storeFn(), machine.Alpha(), memBytes)
	s.WriteInts(512, rtl.W8, []int64{-1, -1, -1, -1})
	if _, err := s.Run("work", 8192, 32); err != nil {
		t.Fatal(err)
	}
	st := s.detach()
	if s.Mem != nil || s.st != nil {
		t.Fatal("releasing must detach Mem and the storage")
	}
	checkScrubbed(t, st)
	storagePool.Put(st)

	s = NewFlat(storeFn(), machine.Alpha(), memBytes)
	for i, b := range s.Mem {
		if b != 0 {
			t.Fatalf("recycled arena byte %d = %d, want 0", i, b)
		}
	}
	s.Release()
}

// checkScrubbed fails unless st's arena is zero over its whole capacity and
// no buffer holds a string or pointer of the program it last carried.
func checkScrubbed(t *testing.T, st *storage) {
	t.Helper()
	for i, b := range st.mem[:cap(st.mem)] {
		if b != 0 {
			t.Fatalf("released arena byte %d = %d, want 0", i, b)
		}
	}
	for i, g := range st.globals[:cap(st.globals)] {
		if g.Name != "" || g.Init != nil {
			t.Fatalf("released global %d still holds %q", i, g.Name)
		}
	}
	for i := range st.fns[:cap(st.fns)] {
		if df := &st.fns[:cap(st.fns)][i]; df.name != "" || df.params != nil || df.code != nil || df.blocks != nil || df.execs != nil {
			t.Fatalf("released function %d still holds %q", i, df.name)
		}
	}
	for i, b := range st.blocks[:cap(st.blocks)] {
		if b.name != "" {
			t.Fatalf("released block %d still named %q", i, b.name)
		}
	}
	for i, df := range st.img.fns[:cap(st.img.fns)] {
		if df != nil {
			t.Fatalf("released image keeps function pointer %d", i)
		}
	}
	for i, c := range st.img.calls[:cap(st.img.calls)] {
		if c.callee != nil || c.name != "" || c.args != nil {
			t.Fatalf("released call %d still holds %q", i, c.name)
		}
	}
	if len(st.img.byName) != 0 {
		t.Fatalf("released name map keeps %d functions", len(st.img.byName))
	}
}

// TestRunAfterReleaseTraps: a released Sim reads nothing of the storage it
// gave back; a Run on it is a TrapBadProgram error.
func TestRunAfterReleaseTraps(t *testing.T) {
	s := NewFlat(storeFn(), machine.Alpha(), 1<<16)
	s.Release()
	next := NewFlat(storeFn(), machine.Alpha(), 1<<16) // may draw the same storage
	defer next.Release()
	if _, err := s.Run("work", 1024, 8); !IsTrap(err, TrapBadProgram) {
		t.Fatalf("Run after Release: err = %v, want a TrapBadProgram trap", err)
	}
	s.Release() // a second Release is a no-op
}

// TestArenaRecycleAllocatesNothing: the pool holds *storage, and a storage
// large enough for the machine is resliced, never replaced, so drawing one
// into a Sim and releasing it allocates nothing. The minimum over samples
// ignores the pool dropping a storage, which it does at random under the
// race detector.
func TestArenaRecycleAllocatesNothing(t *testing.T) {
	const memBytes = 1 << 16
	mach := machine.Alpha()
	var s Sim
	cycle := func() {
		s.attach(drawStorage(), mach, memBytes)
		s.WriteInts(64, rtl.W8, []int64{-1})
		s.Release()
	}
	cycle()
	best := 1.0
	for range 20 {
		best = min(best, testing.AllocsPerRun(1, cycle))
	}
	if best != 0 {
		t.Errorf("a storage draw and Release allocate %.0f objects, want 0", best)
	}
}

// NewFlatFresh builds a Sim on a storage that no simulator has used, and
// NewFlatRecycled releases prev and builds a Sim on the storage it held,
// bypassing the pool, so the external tests can compare the two.
func NewFlatFresh(fp *rtl.FlatProgram, mach *machine.Machine, memBytes int) *Sim {
	return newFlat(new(storage), fp, mach, memBytes)
}

func NewFlatRecycled(prev *Sim, fp *rtl.FlatProgram, mach *machine.Machine, memBytes int) *Sim {
	return newFlat(prev.detach(), fp, mach, memBytes)
}

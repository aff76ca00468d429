package regalloc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"macc"
	"macc/internal/machine"
	"macc/internal/regalloc"
	"macc/internal/rtl"
	"macc/internal/sim"
)

const testSrc = `
int dotproduct(short a[], short b[], int n) {
	int c, i;
	c = 0;
	for (i = 0; i < n; i++)
		c += a[i] * b[i];
	return c;
}
`

func compileUnrolled(t *testing.T) *macc.Program {
	t.Helper()
	p, err := macc.Compile(testSrc, macc.Config{
		Machine: machine.Alpha(), Optimize: true, Unroll: true, UnrollFactor: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fnIndex returns the index of the compiled program's function name in its
// flat image.
func fnIndex(t *testing.T, p *macc.Program, name string) int {
	t.Helper()
	for fi := range p.Flat.Fns {
		if p.Flat.Syms[p.Flat.Fns[fi].Name] == name {
			return fi
		}
	}
	t.Fatalf("no function %s", name)
	return -1
}

func maxRegUsed(f *rtl.FlatFn) rtl.Reg {
	max := rtl.Reg(-1)
	for i := int32(0); i < int32(f.NumInstrs()); i++ {
		if d, ok := f.Def(i); ok && d > max {
			max = d
		}
		for _, r := range f.SrcRegs(i, nil) {
			if r > max {
				max = r
			}
		}
	}
	return max
}

// allocate runs the allocator over the compiled program's function name,
// in place on its flat image, and verifies the result.
func allocate(t *testing.T, p *macc.Program, name string, k int) regalloc.Stats {
	t.Helper()
	fi := fnIndex(t, p, name)
	stats, err := regalloc.Run(p.Flat, fi, k)
	if err != nil {
		t.Fatalf("k=%d: %v", k, err)
	}
	if err := p.Flat.VerifyFn(fi); err != nil {
		t.Fatalf("k=%d: invalid after allocation: %v", k, err)
	}
	return stats
}

func runDot(t *testing.T, p *macc.Program, n int64) int64 {
	t.Helper()
	s := sim.NewFlat(p.Flat, machine.Alpha(), 1<<16)
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = int64(i%37 - 18)
		b[i] = int64(i%31 - 15)
	}
	s.WriteInts(1024, rtl.W2, a)
	s.WriteInts(8192, rtl.W2, b)
	res, err := s.Run("dotproduct", 1024, 8192, n)
	if err != nil {
		t.Fatal(err)
	}
	return res.Ret
}

func TestAllocationBoundsRegisters(t *testing.T) {
	for _, k := range []int{8, 12, 16, 32} {
		p := compileUnrolled(t)
		f := &p.Flat.Fns[fnIndex(t, p, "dotproduct")]
		before := maxRegUsed(f)
		stats := allocate(t, p, "dotproduct", k)
		if max := maxRegUsed(f); int(max) >= k {
			t.Errorf("k=%d: register %d used (had max %d before)", k, max, before)
		}
		if k >= 32 && stats.Spilled > 0 {
			t.Errorf("k=32 should not spill this kernel, spilled %d", stats.Spilled)
		}
		if stats.Spilled > 0 && stats.FrameSize == 0 {
			t.Error("spills without a frame")
		}
	}
}

func TestAllocatedCodeComputesSameResults(t *testing.T) {
	want := runDot(t, compileUnrolled(t), 57)
	for _, k := range []int{8, 10, 16, 32} {
		p := compileUnrolled(t)
		allocate(t, p, "dotproduct", k)
		if got := runDot(t, p, 57); got != want {
			t.Errorf("k=%d: result %d, want %d", k, got, want)
		}
	}
}

func TestSpillsIncreaseMemoryTraffic(t *testing.T) {
	measure := func(k int) int64 {
		p := compileUnrolled(t)
		allocate(t, p, "dotproduct", k)
		s := sim.NewFlat(p.Flat, machine.Alpha(), 1<<16)
		vals := make([]int64, 64)
		s.WriteInts(1024, rtl.W2, vals)
		s.WriteInts(8192, rtl.W2, vals)
		res, err := s.Run("dotproduct", 1024, 8192, 64)
		if err != nil {
			t.Fatal(err)
		}
		return res.MemRefs()
	}
	tight, roomy := measure(8), measure(32)
	if tight <= roomy {
		t.Errorf("8 registers (%d refs) should spill more than 32 (%d refs)", tight, roomy)
	}
}

func TestRunRejectsTinyFiles(t *testing.T) {
	p := compileUnrolled(t)
	if _, err := regalloc.Run(p.Flat, fnIndex(t, p, "dotproduct"), 4); err == nil {
		t.Error("4 registers must be rejected")
	}
	fMany := rtl.NewFn("many", 6)
	fMany.Entry().Instrs = []*rtl.Instr{rtl.RetI(rtl.C(0))}
	many, err := rtl.Flatten(rtl.NewProgram(fMany))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regalloc.Run(many, 0, 8); err == nil {
		t.Error("too many parameters for the register file must be rejected")
	}
}

// TestRandomProgramsSurviveAllocation compiles a family of generated
// straight-line + loop programs, allocates with small register files, and
// checks results against the unallocated compile.
func TestRandomProgramsSurviveAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Generate expression-heavy sources with many simultaneously live
	// scalars to force spills.
	for trial := 0; trial < 10; trial++ {
		nVars := 6 + rng.Intn(6)
		src := "long f(long a, long b, long n) {\n"
		for v := 0; v < nVars; v++ {
			src += fmt.Sprintf("\tlong v%d = a * %d + b;\n", v, rng.Intn(9)+1)
		}
		src += "\tlong i, s = 0;\n\tfor (i = 0; i < n; i++) {\n"
		for v := 0; v < nVars; v++ {
			src += fmt.Sprintf("\t\ts += v%d * (i + %d);\n", v, rng.Intn(5))
		}
		src += "\t}\n\treturn s"
		for v := 0; v < nVars; v++ {
			src += fmt.Sprintf(" + v%d", v)
		}
		src += ";\n}\n"

		ref, err := macc.Compile(src, macc.Config{Machine: machine.Alpha(), Optimize: true})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		alloc, err := macc.Compile(src, macc.Config{Machine: machine.Alpha(), Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		allocate(t, alloc, "f", 8)
		run := func(p *macc.Program) int64 {
			s := sim.NewFlat(p.Flat, machine.Alpha(), 1<<14)
			res, err := s.Run("f", int64(rngFixed(trial)), 7, 13)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return res.Ret
		}
		if w, g := run(ref), run(alloc); w != g {
			t.Fatalf("trial %d: allocation changed result %d -> %d\n%s", trial, w, g, src)
		}
	}
}

func rngFixed(trial int) int { return 3 + trial }

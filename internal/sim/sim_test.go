package sim_test

import (
	"strings"
	"testing"

	"macc/internal/machine"
	"macc/internal/minic"
	"macc/internal/rtl"
	"macc/internal/sim"
)

func compile(t *testing.T, src string) *rtl.Program {
	t.Helper()
	prog, err := minic.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func run(t *testing.T, prog *rtl.Program, fn string, args ...int64) sim.Result {
	t.Helper()
	s := sim.New(prog, machine.Alpha(), 1<<20)
	res, err := s.Run(fn, args...)
	if err != nil {
		t.Fatalf("run %s: %v", fn, err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	prog := compile(t, `
		long f(long a, long b) { return (a + b) * 3 - a / b; }
	`)
	res := run(t, prog, "f", 10, 3)
	if want := int64((10+3)*3 - 10/3); res.Ret != want {
		t.Errorf("got %d, want %d", res.Ret, want)
	}
}

func TestDotProduct(t *testing.T) {
	// The paper's Figure 1a kernel.
	prog := compile(t, `
		int dotproduct(short a[], short b[], int n) {
			int c, i;
			c = 0;
			for (i = 0; i < n; i++)
				c += a[i] * b[i];
			return c;
		}
	`)
	s := sim.New(prog, machine.Alpha(), 1<<20)
	a := []int64{1, -2, 3, 4, 5, 6, 7, -8}
	b := []int64{2, 3, -4, 5, 6, 7, 8, 9}
	s.WriteInts(0, rtl.W2, a)
	s.WriteInts(1024, rtl.W2, b)
	res, err := s.Run("dotproduct", 0, 1024, int64(len(a)))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := range a {
		want += a[i] * b[i]
	}
	if res.Ret != want {
		t.Errorf("dot product = %d, want %d", res.Ret, want)
	}
	if res.Loads != int64(2*len(a)) {
		t.Errorf("loads = %d, want %d", res.Loads, 2*len(a))
	}
}

func TestLoopsAndConditionals(t *testing.T) {
	prog := compile(t, `
		long collatzSteps(long n) {
			long steps = 0;
			while (n != 1) {
				if (n % 2 == 0) n = n / 2;
				else n = 3 * n + 1;
				steps++;
			}
			return steps;
		}
	`)
	if got := run(t, prog, "collatzSteps", 27).Ret; got != 111 {
		t.Errorf("collatz(27) = %d, want 111", got)
	}
}

func TestNarrowStoreTruncates(t *testing.T) {
	prog := compile(t, `
		void f(char *p, int v) { p[0] = v; }
		int g(char *p) { return p[0]; }
	`)
	s := sim.New(prog, machine.Alpha(), 4096)
	if _, err := s.Run("f", 100, 0x1FF); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run("g", 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != -1 { // 0xFF sign-extends to -1 through signed char
		t.Errorf("got %d, want -1", res.Ret)
	}
}

func TestUnsignedLoad(t *testing.T) {
	prog := compile(t, `
		long f(unsigned char *p) { return p[0]; }
	`)
	s := sim.New(prog, machine.Alpha(), 4096)
	s.Mem[50] = 0xFF
	res, err := s.Run("f", 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 255 {
		t.Errorf("got %d, want 255", res.Ret)
	}
}

func TestAlignmentTrap(t *testing.T) {
	prog := compile(t, `
		long f(long *p) { return p[0]; }
	`)
	s := sim.New(prog, machine.Alpha(), 4096)
	if _, err := s.Run("f", 3); !sim.IsTrap(err, sim.TrapAlignment) {
		t.Errorf("expected alignment trap, got %v", err)
	}
	// The 68030 model tolerates misalignment.
	s2 := sim.New(prog, machine.M68030(), 4096)
	if _, err := s2.Run("f", 3); err != nil {
		t.Errorf("m68030 should allow misaligned access, got %v", err)
	}
}

func TestOutOfBoundsTrap(t *testing.T) {
	prog := compile(t, `
		long f(long *p) { return p[0]; }
	`)
	s := sim.New(prog, machine.Alpha(), 4096)
	if _, err := s.Run("f", 4096); !sim.IsTrap(err, sim.TrapOutOfBounds) {
		t.Errorf("expected bounds trap, got %v", err)
	}
	if _, err := s.Run("f", -8); !sim.IsTrap(err, sim.TrapOutOfBounds) {
		t.Errorf("expected bounds trap for negative address, got %v", err)
	}
}

func TestDivideByZeroTrap(t *testing.T) {
	prog := compile(t, `
		long f(long a, long b) { return a / b; }
	`)
	s := sim.New(prog, machine.Alpha(), 4096)
	if _, err := s.Run("f", 1, 0); !sim.IsTrap(err, sim.TrapDivideByZero) {
		t.Errorf("expected divide trap, got %v", err)
	}
}

func TestFuelTrap(t *testing.T) {
	prog := compile(t, `
		long f() { long i = 0; while (1) { i++; } return i; }
	`)
	s := sim.New(prog, machine.Alpha(), 4096)
	s.Fuel = 1000
	if _, err := s.Run("f"); !sim.IsTrap(err, sim.TrapFuel) {
		t.Errorf("expected fuel trap, got %v", err)
	}
}

// TestUnflattenableProgramTraps: a program Flatten rejects — here a branch
// to a block that belongs to no function — must load into a Sim whose Run
// traps as a malformed program, carrying the flatten error, not panic.
func TestUnflattenableProgramTraps(t *testing.T) {
	f := rtl.NewFn("f", 1)
	stray := &rtl.Block{Name: "stray"}
	ret := f.NewBlock("ret")
	ret.Instrs = append(ret.Instrs, rtl.RetI(rtl.C(0)))
	f.Entry().Instrs = append(f.Entry().Instrs, rtl.BranchI(rtl.R(f.Params[0]), ret, stray))
	s := sim.New(rtl.NewProgram(f), machine.Alpha(), 4096)
	_, err := s.Run("f", 1)
	if !sim.IsTrap(err, sim.TrapBadProgram) {
		t.Fatalf("expected a malformed-program trap, got %v", err)
	}
	if !strings.Contains(err.Error(), "dangling edge") {
		t.Errorf("trap does not carry the flatten error: %v", err)
	}
}

func TestCalls(t *testing.T) {
	prog := compile(t, `
		long square(long x) { return x * x; }
		long sumsq(long a, long b) { return square(a) + square(b); }
	`)
	if got := run(t, prog, "sumsq", 3, 4).Ret; got != 25 {
		t.Errorf("sumsq = %d, want 25", got)
	}
}

func TestRecursion(t *testing.T) {
	prog := compile(t, `
		long fib(long n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
	`)
	if got := run(t, prog, "fib", 15).Ret; got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand of && must not execute when the left is false;
	// here it would trap (division by zero).
	prog := compile(t, `
		long f(long a, long b) {
			if (a != 0 && 10 / a > b) return 1;
			return 0;
		}
	`)
	if got := run(t, prog, "f", 0, 5).Ret; got != 0 {
		t.Errorf("short-circuit failed, got %d", got)
	}
	if got := run(t, prog, "f", 1, 5).Ret; got != 1 {
		t.Errorf("got %d, want 1", got)
	}
}

func TestTernaryAndUnary(t *testing.T) {
	prog := compile(t, `
		long f(long a, long b) { return a < b ? -a : ~b; }
	`)
	if got := run(t, prog, "f", 1, 2).Ret; got != -1 {
		t.Errorf("got %d, want -1", got)
	}
	if got := run(t, prog, "f", 5, 2).Ret; got != ^int64(2) {
		t.Errorf("got %d, want %d", got, ^int64(2))
	}
}

func TestPointerArithmetic(t *testing.T) {
	prog := compile(t, `
		long f(short *p, long n) {
			long sum = 0;
			short *end = p + n;
			while (p < end) { sum += *p; p++; }
			return sum;
		}
	`)
	s := sim.New(prog, machine.Alpha(), 4096)
	s.WriteInts(0, rtl.W2, []int64{5, -3, 7, 100})
	res, err := s.Run("f", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 109 {
		t.Errorf("got %d, want 109", res.Ret)
	}
}

func TestCyclesMonotonic(t *testing.T) {
	prog := compile(t, `
		long f(long n) { long i, s = 0; for (i = 0; i < n; i++) s += i; return s; }
	`)
	s := sim.New(prog, machine.Alpha(), 4096)
	r10, err := s.Run("f", 10)
	if err != nil {
		t.Fatal(err)
	}
	r100, err := s.Run("f", 100)
	if err != nil {
		t.Fatal(err)
	}
	if r100.Cycles <= r10.Cycles {
		t.Errorf("cycles should grow with trip count: %d vs %d", r10.Cycles, r100.Cycles)
	}
	if r10.Ret != 45 || r100.Ret != 4950 {
		t.Errorf("wrong sums: %d, %d", r10.Ret, r100.Ret)
	}
}

func TestUnpipelinedCostsMore(t *testing.T) {
	src := `
		long f(long n) { long i, s = 0; for (i = 0; i < n; i++) s += i * 3; return s; }
	`
	prog := compile(t, src)
	fast := sim.New(prog, machine.Alpha(), 4096)
	rf, err := fast.Run("f", 50)
	if err != nil {
		t.Fatal(err)
	}
	prog2 := compile(t, src)
	slow := sim.New(prog2, machine.M68030(), 4096)
	rs, err := slow.Run("f", 50)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycles <= rf.Cycles {
		t.Errorf("the unpipelined CISC should be slower: alpha=%d m68030=%d", rf.Cycles, rs.Cycles)
	}
}

func TestStatsCounters(t *testing.T) {
	prog := compile(t, `
		void copy(int *dst, int *src, long n) {
			long i;
			for (i = 0; i < n; i++) dst[i] = src[i];
		}
	`)
	s := sim.New(prog, machine.Alpha(), 1<<16)
	res, err := s.Run("copy", 0, 4096, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loads != 100 || res.Stores != 100 {
		t.Errorf("loads=%d stores=%d, want 100/100", res.Loads, res.Stores)
	}
	if res.LoadsByWidth[rtl.W4] != 100 {
		t.Errorf("W4 loads = %d, want 100", res.LoadsByWidth[rtl.W4])
	}
	if res.MemRefs() != 200 {
		t.Errorf("memrefs = %d, want 200", res.MemRefs())
	}
}

func TestMemHelpersRoundTrip(t *testing.T) {
	prog := compile(t, `long id(long x) { return x; }`)
	s := sim.New(prog, machine.Alpha(), 4096)
	vals := []int64{1, -1, 32767, -32768, 255}
	s.WriteInts(64, rtl.W2, vals)
	got := s.ReadInts(64, rtl.W2, len(vals), true)
	for i := range vals {
		want := rtl.Extend(vals[i], rtl.W2, true)
		if got[i] != want {
			t.Errorf("idx %d: got %d, want %d", i, got[i], want)
		}
	}
	s.WriteBytes(200, []byte{1, 2, 3})
	if b := s.ReadBytes(200, 3); b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Errorf("byte round trip failed: %v", b)
	}
}

func TestDCacheModel(t *testing.T) {
	// Sequential byte loads over one 16-byte line: 1 miss, 15 hits.
	prog := compile(t, `
		long f(unsigned char *p, long n) {
			long i, s = 0;
			for (i = 0; i < n; i++) s += p[i];
			return s;
		}
	`)
	m := machine.Alpha()
	s := sim.New(prog, m, 1<<14)
	res, err := s.Run("f", 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.DCacheMisses != 1 {
		t.Errorf("16 sequential bytes should miss once, got %d", res.DCacheMisses)
	}
	// Strided accesses hitting a new line each time: one miss per access.
	prog2 := compile(t, `
		long g(unsigned char *p, long n) {
			long i, s = 0;
			for (i = 0; i < n; i++) s += p[i*64];
			return s;
		}
	`)
	s2 := sim.New(prog2, m, 1<<14)
	res2, err := s2.Run("g", 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DCacheMisses != 16 {
		t.Errorf("64-byte strided loads should miss every time, got %d", res2.DCacheMisses)
	}
	if res2.Cycles <= res.Cycles {
		t.Error("thrashing access pattern should cost more cycles")
	}
}

func TestDCacheDisabled(t *testing.T) {
	prog := compile(t, `long f(long *p) { return p[0]; }`)
	m := machine.Alpha()
	m.DCacheBytes = 0
	s := sim.New(prog, m, 4096)
	res, err := s.Run("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DCacheMisses != 0 {
		t.Errorf("disabled dcache recorded %d misses", res.DCacheMisses)
	}
}

func TestDCacheSplitLineAccess(t *testing.T) {
	// The 68030 allows misaligned accesses; one spanning a line boundary
	// touches two lines.
	prog := compile(t, `long f(long *p) { return p[0]; }`)
	m := machine.M68030()
	s := sim.New(prog, m, 4096)
	res, err := s.Run("f", 12) // [12,20) spans lines 0 and 1
	if err != nil {
		t.Fatal(err)
	}
	if res.DCacheMisses != 2 {
		t.Errorf("split access should miss twice, got %d", res.DCacheMisses)
	}
}

func TestDoWhile(t *testing.T) {
	prog := compile(t, `
		long f(long n) {
			long s = 0;
			do {
				s += n;
				n--;
			} while (n > 0);
			return s;
		}
	`)
	if got := run(t, prog, "f", 4).Ret; got != 10 {
		t.Errorf("do-while sum = %d, want 10", got)
	}
	// The body must run at least once even when the condition is false.
	if got := run(t, prog, "f", -3).Ret; got != -3 {
		t.Errorf("do-while must run once: got %d, want -3", got)
	}
}

func TestDoWhileBreakContinue(t *testing.T) {
	prog := compile(t, `
		long f(long n) {
			long s = 0, i = 0;
			do {
				i++;
				if (i == 3) continue;
				if (i > n) break;
				s += i;
			} while (1);
			return s;
		}
	`)
	// i: 1,2 summed; 3 skipped; 4,5 summed while <= n=5; 6 breaks.
	if got := run(t, prog, "f", 5).Ret; got != 1+2+4+5 {
		t.Errorf("got %d, want 12", got)
	}
}

func TestProfile(t *testing.T) {
	prog := compile(t, `
		long f(long n) { long i, s = 0; for (i = 0; i < n; i++) s += i; return s; }
	`)
	s := sim.New(prog, machine.Alpha(), 4096)
	s.EnableProfile()
	if _, err := s.Run("f", 25); err != nil {
		t.Fatal(err)
	}
	rows := s.Profile()
	if len(rows) == 0 {
		t.Fatal("no profile rows")
	}
	// The hottest block must be a loop block executed ~25 times.
	if rows[0].Execs < 25 {
		t.Errorf("hottest block execs = %d, want >= 25", rows[0].Execs)
	}
	if out := sim.FormatProfile(rows, 3); len(out) == 0 {
		t.Error("empty formatted profile")
	}
}

func TestGlobals(t *testing.T) {
	prog := compile(t, `
		short weights[5] = {3, -1, 4, -1, 5};
		int scale = 2;
		long counter;

		long weighted(short *a, int n) {
			long s = 0;
			int i;
			for (i = 0; i < n; i++)
				s += a[i] * weights[i % 5];
			counter = counter + 1;
			return s * scale;
		}
	`)
	s := sim.New(prog, machine.Alpha(), 1<<16)
	a := []int64{1, 2, 3, 4, 5, 6}
	s.WriteInts(8192, rtl.W2, a)
	res, err := s.Run("weighted", 8192, int64(len(a)))
	if err != nil {
		t.Fatal(err)
	}
	w := []int64{3, -1, 4, -1, 5}
	var want int64
	for i, v := range a {
		want += v * w[i%5]
	}
	want *= 2
	if res.Ret != want {
		t.Errorf("got %d, want %d", res.Ret, want)
	}
	// Globals reload on each Run: counter starts at zero every time.
	res2, err := s.Run("weighted", 8192, int64(len(a)))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Ret != want {
		t.Errorf("second run differs: %d", res2.Ret)
	}
}

func TestGlobalLUT(t *testing.T) {
	// A gamma-style lookup table: data-dependent loads from a global.
	prog := compile(t, `
		unsigned char lut[8] = {7, 6, 5, 4, 3, 2, 1, 0};

		void apply(unsigned char *img, unsigned char *out, int n) {
			int i;
			for (i = 0; i < n; i++)
				out[i] = lut[img[i] & 7];
		}
	`)
	s := sim.New(prog, machine.Alpha(), 1<<16)
	img := []byte{0, 1, 2, 3, 4, 5, 6, 7, 3, 1}
	s.WriteBytes(8192, img)
	if _, err := s.Run("apply", 8192, 12288, int64(len(img))); err != nil {
		t.Fatal(err)
	}
	out := s.ReadBytes(12288, len(img))
	for i, v := range img {
		if out[i] != 7-v&7 {
			t.Errorf("out[%d] = %d, want %d", i, out[i], 7-v&7)
		}
	}
}

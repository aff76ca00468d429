package macc_test

// Fuzz targets. Run with e.g.
//
//	go test -fuzz FuzzMiniCFrontEnd -fuzztime 30s .
//
// In plain `go test` runs only the seed corpus executes.

import (
	"bytes"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/core"
	"macc/internal/faultinject"
	"macc/internal/machine"
	"macc/internal/pipeline"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
	"macc/internal/sim"
)

// FuzzMiniCFrontEnd feeds arbitrary text to the front end: it must either
// return an error or produce RTL that passes the verifier — never panic.
func FuzzMiniCFrontEnd(f *testing.F) {
	seeds := []string{
		"int f() { return 0; }",
		"int f(short a[], int n) { int i, s = 0; for (i=0;i<n;i++) s += a[i]; return s; }",
		"void g(char *p) { *p = 'x'; }",
		"int f() { return 1 ? 2 : 3; }",
		"long h(long a) { do { a--; } while (a > 0); return a; }",
		"int f( { }",
		"unsigned long u(unsigned x) { return x >> 3; }",
		"int f() { int x = 08; }",
		"/* unterminated",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := macc.Compile(src, macc.Config{Machine: machine.Alpha(), Optimize: true})
		if err != nil {
			return
		}
		for _, fn := range prog.RTL.Fns {
			if verr := fn.Verify(); verr != nil {
				t.Fatalf("accepted source produced invalid RTL: %v", verr)
			}
		}
	})
}

// FuzzRTLParser feeds arbitrary text to the RTL parser; accepted inputs
// must verify and reprint stably.
func FuzzRTLParser(f *testing.F) {
	f.Add("func f(r0) {\nentry:\n\tret r0\n}")
	f.Add("func f() {\nentry:\n\tr0 = M.2s[r1+4]\n\tret r0\n}")
	f.Add("func f() {\nentry:\n\tjump loop\nloop:\n\tjump loop\n}")
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := rtl.ParseFn(src)
		if err != nil {
			return
		}
		printed := fn.String()
		fn2, err := rtl.ParseFn(printed)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\n%s", err, printed)
		}
		if fn2.String() != printed {
			t.Fatal("print/parse/print is not a fixpoint")
		}
	})
}

// FuzzPipelinePreservation drives the full optimizing pipeline with
// generator seeds: the optimized compile of a generated program must match
// the unoptimized interpretation bit for bit.
func FuzzPipelinePreservation(f *testing.F) {
	for s := int64(0); s < 12; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		gen, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := machine.M68030()
		run := func(fn *rtl.Fn) (int64, []byte) {
			s := sim.New(rtl.NewProgram(fn), m, rtlgen.MemWindow*2)
			s.Fuel = 1 << 22
			res, err := s.Run("f", 11, 22, 33)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res.Ret, s.Mem[:rtlgen.MemWindow]
		}
		r1, m1 := run(gen)
		p, err := macc.CompileRTL(rtl.NewProgram(gen), macc.Config{
			Machine: m, Optimize: true, Unroll: true, Schedule: true,
			Coalesce: core.Options{Loads: true, Stores: true},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fn2, _ := p.Fn("f")
		r2, m2 := run(fn2)
		if r1 != r2 || !bytes.Equal(m1, m2) {
			t.Fatalf("seed %d: pipeline changed behaviour (%d vs %d)", seed, r1, r2)
		}
	})
}

// FuzzCorpusPreservation compiles one program of the seeded mini-C corpus
// with loads+stores coalescing on every machine. Unlike rtlgen.Generate's
// programs, which the coalescer never transforms, the corpus is built from
// the array loops the paper targets, so this target drives the coalescer's
// rewrite and its run-time checks. The optimized image must verify and
// behave exactly like the unoptimized compile.
func FuzzCorpusPreservation(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := rtlgen.Corpus(seed, 1)[0]
		for _, m := range machine.All() {
			ref, err := macc.Compile(p.Src, macc.Config{Machine: m})
			if err != nil {
				t.Fatalf("seed %d/%s: reference compile: %v", seed, m.Name, err)
			}
			want, err := pipeline.Behavior(ref.RTL, m, p.MemBytes, p.Entry, [][]int64{p.Args})
			if err != nil {
				t.Fatalf("seed %d/%s: reference run: %v", seed, m.Name, err)
			}
			opt, err := macc.Compile(p.Src, bench.NamedConfig("loads+stores", m))
			if err != nil {
				t.Fatalf("seed %d/%s: compile: %v", seed, m.Name, err)
			}
			if err := opt.Flat.Verify(); err != nil {
				t.Fatalf("seed %d/%s: optimized image: %v", seed, m.Name, err)
			}
			got, err := pipeline.Behavior(opt.RTL, m, p.MemBytes, p.Entry, [][]int64{p.Args})
			if err != nil {
				t.Fatalf("seed %d/%s: optimized run: %v", seed, m.Name, err)
			}
			if got != want {
				t.Fatalf("seed %d/%s: coalesced program diverges from unoptimized build\n%s", seed, m.Name, p.Src)
			}
		}
	})
}

// FuzzCompile is the hardened-pipeline fuzz target: it injects a
// deterministic fault (panic or structural RTL corruption) into an
// arbitrary pass while compiling a generated program, and asserts the
// resilience contract — the non-strict compile never fails, the degraded
// output behaves bit-identically to the unoptimized build, and the
// diagnostics attribute the sabotaged pass.
func FuzzCompile(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s, uint8(s), uint8(s))
	}
	f.Fuzz(func(t *testing.T, seed int64, passRaw, kindRaw uint8) {
		gen, err := rtlgen.Generate(seed&63, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := machine.M68030()
		cfg := macc.Config{
			Machine: m, Optimize: true, Unroll: true, Schedule: true,
			Coalesce: core.Options{Loads: true, Stores: true},
		}
		passes := macc.Passes(cfg)
		// Structural kinds only: FlipOp is a silent miscompile by design
		// and legitimately changes behaviour.
		kinds := []faultinject.Kind{
			faultinject.Panic, faultinject.ClobberReg,
			faultinject.DropTerminator, faultinject.RetargetBranch,
		}
		inj := &faultinject.Injector{
			Pass: passes[int(passRaw)%len(passes)],
			Kind: kinds[int(kindRaw)%len(kinds)],
			Seed: seed,
		}
		cfg.WrapPass = inj.Hook()

		want, err := pipeline.Behavior(rtl.NewProgram(gen), m, rtlgen.MemWindow*2, "f", [][]int64{{11, 22, 33}})
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		p, err := macc.CompileRTL(rtl.NewProgram(gen), cfg)
		if err != nil {
			t.Fatalf("seed %d: non-strict compile failed: %v", seed, err)
		}
		got, err := pipeline.Behavior(p.RTL, m, rtlgen.MemWindow*2, "f", [][]int64{{11, 22, 33}})
		if err != nil {
			t.Fatalf("seed %d: degraded program trapped: %v", seed, err)
		}
		if got != want {
			t.Fatalf("seed %d: degraded program diverges from unoptimized build", seed)
		}
		if inj.Fired() {
			failed := p.Diagnostics.FailedPasses()
			if len(failed) == 0 || failed[0] != inj.Pass {
				t.Fatalf("seed %d: diagnostics %v do not attribute %q", seed, failed, inj.Pass)
			}
		}
	})
}

// FuzzEvalExtractInsert checks the extract/insert algebra exhaustively
// against a byte-array model.
func FuzzEvalExtractInsert(f *testing.F) {
	f.Add(int64(0x0123456789ABCDEF), int64(-1), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, wide, val int64, offRaw, wRaw uint8) {
		ws := []rtl.Width{rtl.W1, rtl.W2, rtl.W4}
		w := ws[int(wRaw)%len(ws)]
		off := int64(offRaw) % (8 - int64(w) + 1)

		// Byte-array model.
		var bytesOf [8]byte
		for i := 0; i < 8; i++ {
			bytesOf[i] = byte(uint64(wide) >> (8 * uint(i)))
		}
		for i := 0; i < int(w); i++ {
			bytesOf[off+int64(i)] = byte(uint64(val) >> (8 * uint(i)))
		}
		var wantIns uint64
		for i := 7; i >= 0; i-- {
			wantIns = wantIns<<8 | uint64(bytesOf[i])
		}
		if got := rtl.EvalInsert(wide, val, off, w); uint64(got) != wantIns {
			t.Fatalf("insert mismatch: got %x want %x", got, wantIns)
		}
		got := rtl.EvalExtract(int64(wantIns), off, w, false)
		if uint64(got) != uint64(val)&w.Mask() {
			t.Fatalf("extract mismatch: got %x", got)
		}
	})
}

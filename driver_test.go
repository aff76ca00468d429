package macc_test

// The compile driver: every compile verifies each function before any pass
// runs, rejects malformed input with an error naming the function, and
// returns a Program carrying its verified flat image.

import (
	"fmt"
	"strings"
	"testing"

	"macc"
	"macc/internal/ccache"
	"macc/internal/minic"
	"macc/internal/rtl"
)

// malformedFns returns the malformed shapes of rtl's
// TestVerifyCatchesBadShapes, each in a function named "victim".
func malformedFns() map[string]*rtl.Fn {
	mk := func(build func(f *rtl.Fn) []*rtl.Instr) *rtl.Fn {
		f := rtl.NewFn("victim", 1)
		f.Entry().Instrs = build(f)
		return f
	}
	return map[string]*rtl.Fn{
		"empty block": mk(func(*rtl.Fn) []*rtl.Instr { return nil }),
		"terminator in middle": mk(func(f *rtl.Fn) []*rtl.Instr {
			return []*rtl.Instr{rtl.RetI(rtl.R(f.Params[0])), rtl.MovI(f.NewReg(), rtl.C(0))}
		}),
		"missing terminator": mk(func(f *rtl.Fn) []*rtl.Instr {
			return []*rtl.Instr{rtl.MovI(f.NewReg(), rtl.C(0))}
		}),
		"invalid width": mk(func(f *rtl.Fn) []*rtl.Instr {
			return []*rtl.Instr{rtl.LoadI(f.NewReg(), rtl.R(0), 0, 3, false), rtl.RetI(rtl.C(0))}
		}),
		"register outside pool": mk(func(*rtl.Fn) []*rtl.Instr {
			return []*rtl.Instr{rtl.MovI(999, rtl.C(0)), rtl.RetI(rtl.C(0))}
		}),
		"jump to foreign block": mk(func(*rtl.Fn) []*rtl.Instr {
			return []*rtl.Instr{rtl.JumpI(rtl.NewFn("o", 0).NewBlock("x"))}
		}),
		"call without callee": mk(func(*rtl.Fn) []*rtl.Instr {
			return []*rtl.Instr{rtl.CallI(rtl.NoReg, ""), rtl.RetI(rtl.C(0))}
		}),
	}
}

func wantRejected(t *testing.T, what string, p *macc.Program, err error) {
	t.Helper()
	switch {
	case err == nil:
		t.Errorf("%s: accepted", what)
	case p != nil:
		t.Errorf("%s: returned a program alongside %v", what, err)
	case !strings.Contains(err.Error(), "victim"):
		t.Errorf("%s: error %q does not name the function", what, err)
	}
}

// TestMalformedRTLIsACompileError feeds every malformed shape through
// CompileRTL, with the passes on and off, and through OptimizeFlat: each
// must be an error naming the function, never a panic or a program that
// traps in the simulator.
func TestMalformedRTLIsACompileError(t *testing.T) {
	for name, f := range malformedFns() {
		for _, optimize := range []bool{true, false} {
			cfg := macc.DefaultConfig()
			cfg.Optimize = optimize
			p, err := macc.CompileRTL(rtl.NewProgram(f), cfg)
			wantRejected(t, name+" (CompileRTL)", p, err)
		}
		fp, err := rtl.Flatten(rtl.NewProgram(f))
		if err != nil {
			// A jump to a foreign block has no flat form: the flattener
			// is the driver's first gate.
			wantRejected(t, name+" (Flatten)", nil, err)
			continue
		}
		p, err := macc.OptimizeFlat(fp, macc.DefaultConfig())
		wantRejected(t, name+" (OptimizeFlat)", p, err)
	}

	// Flat images that no pointer graph can express: edge fields, operand
	// kinds and symbols out of range. Each is checked with the passes on
	// and off, with and without stage dumps (which materialize a function
	// before any pass runs).
	corrupt := map[string]func(fp *rtl.FlatProgram){
		"jump target out of range": func(fp *rtl.FlatProgram) { fp.Fns[0].Target[1] = 7 },
		"target on a mov":          func(fp *rtl.FlatProgram) { fp.Fns[0].Target[0] = 7 },
		"target on a ret":          func(fp *rtl.FlatProgram) { fp.Fns[0].Target[2] = 7 },
		"else on a jump":           func(fp *rtl.FlatProgram) { fp.Fns[0].Else[1] = 7 },
		"operand kind past const":  func(fp *rtl.FlatProgram) { fp.Fns[0].A[0].Kind = 9 },
		// A function or global whose name is not in the symbol table has
		// no name to report, but must still be an error rather than a
		// panic in a pass.
		"fn name out of range":     func(fp *rtl.FlatProgram) { fp.Fns[0].Name = rtl.Sym(len(fp.Syms)) },
		"global name out of range": func(fp *rtl.FlatProgram) { fp.Globals[0].Name = rtl.Sym(len(fp.Syms)) },
	}
	for name, mutate := range corrupt {
		for _, optimize := range []bool{true, false} {
			for _, dump := range []bool{true, false} {
				what := fmt.Sprintf("%s (OptimizeFlat, optimize=%v, dump=%v)", name, optimize, dump)
				cfg := macc.DefaultConfig()
				cfg.Optimize = optimize
				if dump {
					cfg.DumpStage = func(string, *rtl.Fn) {}
				}
				fp := victimImage(t)
				mutate(fp)
				p, panicked, err := optimizeNoPanic(fp, cfg)
				switch {
				case panicked != nil:
					t.Errorf("%s: panic: %v", what, panicked)
				case strings.HasSuffix(name, "name out of range"):
					if err == nil || p != nil {
						t.Errorf("%s: got %v, %v", what, p, err)
					}
				default:
					wantRejected(t, what, p, err)
				}
			}
		}
	}
}

// victimImage flattens a well-formed program: a global and a function
// "victim" of three instructions, mov; jump exit; exit: ret.
func victimImage(t *testing.T) *rtl.FlatProgram {
	t.Helper()
	f := rtl.NewFn("victim", 0)
	exit := f.NewBlock("exit")
	f.Entry().Instrs = []*rtl.Instr{rtl.MovI(f.NewReg(), rtl.C(0)), rtl.JumpI(exit)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(0))}
	p := rtl.NewProgram(f)
	p.Globals = append(p.Globals, &rtl.Global{Name: "g", Addr: 64, Size: 8, Init: make([]byte, 8)})
	fp, err := rtl.Flatten(p)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// optimizeNoPanic runs OptimizeFlat and returns what it panicked with, if
// it did.
func optimizeNoPanic(fp *rtl.FlatProgram, cfg macc.Config) (p *macc.Program, panicked any, err error) {
	defer func() { panicked = recover() }()
	p, err = macc.OptimizeFlat(fp, cfg)
	return p, nil, err
}

// TestEveryProgramCarriesItsFlatImage checks that Program.Flat is set on
// every route — source and RTL compiles with the passes on and off,
// OptimizeFlat, and memory and disk cache hits — and that an unoptimized
// compile prints exactly the front end's RTL.
func TestEveryProgramCarriesItsFlatImage(t *testing.T) {
	const src = `
int table[4] = {1, 2, 3, 4};
int pick(int i) { return table[i & 3]; }
` + dotSrc
	rp, err := minic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	want := rp.String()
	plain := macc.Config{}
	dir := t.TempDir()
	cached := macc.DefaultConfig()
	cached.Cache = ccache.New(ccache.Options{Dir: dir})
	fromDisk := macc.DefaultConfig()
	fromDisk.Cache = ccache.New(ccache.Options{Dir: dir})

	type route struct {
		name    string
		compile func() (*macc.Program, error)
	}
	flatOf := func() *rtl.FlatProgram {
		fp, err := rtl.Flatten(rp)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	routes := []route{
		{"Compile", func() (*macc.Program, error) { return macc.Compile(src, macc.DefaultConfig()) }},
		{"Compile -O=false", func() (*macc.Program, error) { return macc.Compile(src, plain) }},
		{"CompileRTL", func() (*macc.Program, error) { return macc.CompileRTL(rp, macc.DefaultConfig()) }},
		{"CompileRTL -O=false", func() (*macc.Program, error) { return macc.CompileRTL(rp, plain) }},
		{"OptimizeFlat", func() (*macc.Program, error) { return macc.OptimizeFlat(flatOf(), macc.DefaultConfig()) }},
		{"OptimizeFlat -O=false", func() (*macc.Program, error) { return macc.OptimizeFlat(flatOf(), plain) }},
		{"cache miss", func() (*macc.Program, error) { return macc.Compile(src, cached) }},
		{"memory hit", func() (*macc.Program, error) { return macc.Compile(src, cached) }},
		{"disk hit", func() (*macc.Program, error) { return macc.Compile(src, fromDisk) }},
	}
	for _, r := range routes {
		p, err := r.compile()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if p.Flat == nil {
			t.Errorf("%s: Program.Flat is nil", r.name)
		}
		if hit := strings.HasSuffix(r.name, "hit"); p.Cached != hit {
			t.Errorf("%s: Cached = %v", r.name, p.Cached)
		}
		if strings.HasSuffix(r.name, "-O=false") {
			if got := p.RTL.String(); got != want {
				t.Errorf("%s: printed RTL differs from the front end's:\n%s\nwant:\n%s", r.name, got, want)
			}
		}
	}
	if rp.String() != want {
		t.Error("compiling modified the input program")
	}
}

package rtl_test

// Flatten/Unflatten losslessness and strictness. The printer is the
// correctness anchor: a round trip through the flat form must print
// byte-identically and preserve the register/block counters.

import (
	"errors"
	"slices"
	"testing"

	"macc/internal/rtl"
	"macc/internal/rtl/codec"
	"macc/internal/rtlgen"
)

const flatFixture = `global tab @4096 size 16 init deadbeef
global bss @8192 size 64
func f(r0, r1) frame 24 @r7 {
entry:
	r2 = M.4u[r0+8]
	r3 = r2 + 17
	if r3 goto body else exit
body:
	M.4[r1-4] = r3
	r4 = extract.2s r2 @1
	r5 = insert.1 r2 <- r3 @2
	r6 = g(r4, 3)
	jump exit
exit:
	ret r3
}
func g(r0, r1) {
entry:
	r2 = r0 * r1
	ret r2
}
`

func mustParse(t *testing.T, src string) *rtl.Program {
	t.Helper()
	p, err := rtl.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func roundTrip(t *testing.T, p *rtl.Program) *rtl.Program {
	t.Helper()
	fp, err := rtl.Flatten(p)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	if err := fp.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	back := fp.Unflatten()
	return back
}

func TestFlatRoundTripFixture(t *testing.T) {
	p := mustParse(t, flatFixture)
	want := p.String()
	back := roundTrip(t, p)
	if got := back.String(); got != want {
		t.Fatalf("round trip not lossless:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The materialized program must be fully private: mutating it must not
	// disturb a second materialization from the same image.
	fp, err := rtl.Flatten(p)
	if err != nil {
		t.Fatal(err)
	}
	one := fp.Unflatten()
	one.Fns[0].Blocks[0].Instrs[0].Disp = 999
	one.Globals[0].Init[0] = 0xFF
	if f, ok := one.Lookup("g"); ok {
		f.Blocks[0].Instrs[0].Op = rtl.Add
	}
	two := fp.Unflatten()
	if got := two.String(); got != want {
		t.Fatalf("images share state: second unflatten differs:\n%s", got)
	}
}

func TestFlatPreservesCounters(t *testing.T) {
	p := mustParse(t, flatFixture)
	f := p.Fns[0]
	wantReg := f.NewReg() // consume one so the counter is past max-used
	wantBlk := f.NewBlock("extra")
	wantBlk.Instrs = append(wantBlk.Instrs, &rtl.Instr{Op: rtl.Ret})
	back := roundTrip(t, p)
	bf, ok := back.Lookup("f")
	if !ok {
		t.Fatal("f missing after round trip")
	}
	if got := bf.NewReg(); got != wantReg+1 {
		t.Fatalf("register counter lost: got r%d want r%d", got, wantReg+1)
	}
	nb := bf.NewBlock("post")
	if nb.ID != wantBlk.ID+1 {
		t.Fatalf("block counter lost: got id %d want %d", nb.ID, wantBlk.ID+1)
	}
}

// TestSnapshotRestoreKeepsDecodedNeighbours rolls back function 0 of a
// decoded image after growing it, and after growing and then shrinking it.
// The decoder carves each function's operand arrays from one slab with
// capped slices, and Restore copies into the live function's own buffers,
// so a restore must reproduce the captured function without writing past
// any buffer's capacity: the other function and the symbol table stay as
// decoded.
func TestSnapshotRestoreKeepsDecodedNeighbours(t *testing.T) {
	fp0, err := rtl.Flatten(mustParse(t, flatFixture))
	if err != nil {
		t.Fatal(err)
	}
	data := codec.EncodeProgram(fp0)
	fp, err := codec.DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Fns) != 2 {
		t.Fatalf("fixture has %d functions, want 2", len(fp.Fns))
	}
	fnBytes := func(fp *rtl.FlatProgram, fi int) string {
		return string(codec.EncodeProgram(&rtl.FlatProgram{Syms: fp.Syms, Fns: fp.Fns[fi : fi+1]}))
	}
	want0, want1 := fnBytes(fp, 0), fnBytes(fp, 1)
	syms := slices.Clone(fp.Syms)
	snap := rtl.NewFlatSnapshot(fp, 0)
	for round := 0; round < 2; round++ {
		f := &fp.Fns[0]
		grow := make([]rtl.FlatInstr, 2*f.NumInstrs())
		for k := range grow {
			grow[k] = rtl.FlatOp(rtl.Add, f.NewReg(), rtl.R(0), rtl.C(int64(k)))
		}
		f.SpliceInstrs(0, 0, 0, grow)
		f.AppendInstr(f.NewBlock(fp.Intern("grown")), rtl.MkInstr(rtl.Ret))
		if round == 1 {
			// Then shrink below the capture: Compact rebuilds the call
			// tables, so the restore must outgrow the live buffers.
			kill := make([]bool, f.NumInstrs())
			for i := range kill {
				kill[i] = !f.Op[i].IsTerminator()
			}
			f.Compact(kill)
		}
		snap.Restore()
		if got := fnBytes(fp, 0); got != want0 {
			t.Errorf("round %d: restored function differs from its capture", round)
		}
		if got := fnBytes(fp, 1); got != want1 {
			t.Errorf("round %d: restoring function 0 changed function 1", round)
		}
		if !slices.Equal(fp.Syms, syms) {
			t.Errorf("round %d: symbols %q after restore, want %q", round, fp.Syms, syms)
		}
		if got := string(codec.EncodeProgram(fp)); got != string(data) {
			t.Errorf("round %d: restored image does not re-encode to the decoded bytes", round)
		}
	}
}

func TestFlattenRejectsDanglingEdge(t *testing.T) {
	f := rtl.NewFn("f", 0)
	stray := &rtl.Block{ID: 99, Name: "stray"}
	f.Entry().Instrs = append(f.Entry().Instrs, &rtl.Instr{Op: rtl.Jump, Target: stray})
	if _, err := rtl.Flatten(rtl.NewProgram(f)); err == nil {
		t.Fatal("Flatten accepted a jump to a block outside the function")
	}
}

// TestUnflattenRejectsCorruptImage corrupts one index or field of a valid
// image per case. Verify, the check every image passes before it may be
// unflattened, must reject each, and so must the decoder: an image that
// enters through the codec is checked by the same Verify.
func TestUnflattenRejectsCorruptImage(t *testing.T) {
	base := func(t *testing.T) *rtl.FlatProgram {
		fp, err := rtl.Flatten(mustParse(t, flatFixture))
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	// f's instructions: 0 load, 1 add, 2 branch, 3 store, 4 extract,
	// 5 insert, 6 call, 7 jump, 8 ret.
	cases := map[string]func(*rtl.FlatProgram){
		"sym-out-of-range":    func(fp *rtl.FlatProgram) { fp.Fns[0].Name = rtl.Sym(len(fp.Syms)) },
		"edge-out-of-range":   func(fp *rtl.FlatProgram) { fp.Fns[0].Target[2] = 99 },
		"bad-opcode":          func(fp *rtl.FlatProgram) { fp.Fns[0].Op[0] = 250 },
		"ragged-arrays":       func(fp *rtl.FlatProgram) { fp.Fns[0].Dst = fp.Fns[0].Dst[:1] },
		"bad-call-args":       func(fp *rtl.FlatProgram) { fp.Fns[0].Calls[0].ArgEnd = 99 },
		"bad-operand-kind":    func(fp *rtl.FlatProgram) { fp.Fns[0].A[0].Kind = 7 },
		"blocks-do-not-tile":  func(fp *rtl.FlatProgram) { fp.Fns[0].Blocks[1].InstrStart++ },
		"call-idx-mismatched": func(fp *rtl.FlatProgram) { fp.Fns[0].CallIdx[0] = 0 },
		"target-on-add":       func(fp *rtl.FlatProgram) { fp.Fns[0].Target[1] = 7 },
		"target-on-ret":       func(fp *rtl.FlatProgram) { fp.Fns[0].Target[8] = 7 },
		"else-on-jump":        func(fp *rtl.FlatProgram) { fp.Fns[0].Else[7] = 7 },
		"c-kind-past-const":   func(fp *rtl.FlatProgram) { fp.Fns[0].C[1].Kind = rtl.KindConst + 1 },
		"arg-kind-past-const": func(fp *rtl.FlatProgram) { fp.Fns[0].Args[0].Kind = rtl.KindConst + 1 },
		"arg-outside-pool":    func(fp *rtl.FlatProgram) { fp.Fns[0].Args[0] = rtl.R(99) },
		"dst-below-noreg":     func(fp *rtl.FlatProgram) { fp.Fns[0].Dst[3] = rtl.NoReg - 1 },
		"frame-outside-pool":  func(fp *rtl.FlatProgram) { fp.Fns[0].FrameReg = 99 },
		"global-sym":          func(fp *rtl.FlatProgram) { fp.Globals[1].Name = rtl.Sym(len(fp.Syms)) },
	}
	// The wire format carries one instruction count and one argument count
	// per call, so it has no encoding of these two; the decoder builds
	// parallel arrays and in-range argument ranges by construction.
	noEncoding := map[string]bool{"ragged-arrays": true, "bad-call-args": true}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			fp := base(t)
			corrupt(fp)
			if err := fp.Verify(); err == nil {
				t.Fatal("Verify accepted a corrupt image")
			}
			if noEncoding[name] {
				return
			}
			if _, err := codec.DecodeProgram(codec.EncodeProgram(fp)); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("decode = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestFlatRoundTripRTLGenCorpus(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p := rtl.NewProgram(fn)
		want := p.String()
		back := roundTrip(t, p)
		if got := back.String(); got != want {
			t.Fatalf("seed %d: round trip not lossless:\n%s\nvs\n%s", seed, got, want)
		}
	}
}

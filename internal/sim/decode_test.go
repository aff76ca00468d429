package sim

import (
	"fmt"
	"testing"

	"macc/internal/machine"
	"macc/internal/minic"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
)

// operandIs reports whether decoded slot d holds operand o: a register
// index, a constant, or the absent marker.
func operandIs(d dOp, o rtl.Operand) bool {
	switch o.Kind {
	case rtl.KindReg:
		return d.reg == int32(o.Reg)
	case rtl.KindConst:
		return d.reg == constSrc && d.val == o.Const
	default:
		return d.reg == absentSrc
	}
}

// checkDecode predecodes fp for mach and holds every decoded instruction to
// the pointer-graph rules applied to the Unflattened program: its fields,
// Exec latency and occupancy from Costs.Of/OccOf, readiness sources from
// the flat image's SrcRegs, call arguments, branch targets, and the
// per-block and phantom sentinels.
func checkDecode(t testing.TB, fp *rtl.FlatProgram, mach *machine.Machine) {
	t.Helper()
	g := fp.Unflatten()
	img := &NewFlat(fp, mach, 1<<12).st.img
	if len(img.fns) != len(g.Fns) {
		t.Fatalf("decoded %d functions, program has %d", len(img.fns), len(g.Fns))
	}
	for fi, f := range g.Fns {
		df := img.fns[fi]
		if len(df.blocks) != len(f.Blocks)+1 {
			t.Fatalf("%s: %d decoded blocks, want %d plus the phantom", f.Name, len(df.blocks), len(f.Blocks))
		}
		if len(df.params) != len(f.Params) {
			t.Fatalf("%s: %d params, want %d", f.Name, len(df.params), len(f.Params))
		}
		for pi, p := range f.Params {
			if df.params[pi] != int32(p) {
				t.Errorf("%s: param %d is r%d, want %s", f.Name, pi, df.params[pi], p)
			}
		}
		index := make(map[*rtl.Block]int32, len(f.Blocks))
		for bi, b := range f.Blocks {
			index[b] = int32(bi)
		}
		for bi, b := range f.Blocks {
			db := df.blocks[bi]
			if db.name != b.Name || int(db.ninstr) != len(b.Instrs) {
				t.Fatalf("%s block %d: decoded %q/%d instrs, want %q/%d", f.Name, bi, db.name, db.ninstr, b.Name, len(b.Instrs))
			}
			for j, in := range b.Instrs {
				at := fmt.Sprintf("%s/%s[%d] %s", f.Name, b.Name, j, in)
				var srcs []int32
				if in.Op != rtl.Call {
					ff := &fp.Fns[fi]
					for _, r := range ff.SrcRegs(ff.Blocks[bi].InstrStart+int32(j), nil) {
						srcs = append(srcs, int32(r))
					}
				}
				checkInstr(t, at, img, &df.code[int(db.start)+j], in, srcs, index, &mach.Exec)
			}
			if op := df.code[int(db.start)+len(b.Instrs)].op; op != opBadBlock {
				t.Errorf("%s/%s: no sentinel after the block (op %v)", f.Name, b.Name, op)
			}
		}
		phantom := df.blocks[len(f.Blocks)]
		if int(phantom.start) != len(df.code)-1 || df.code[phantom.start].op != opBadBlock {
			t.Errorf("%s: phantom block at %d of %d is not the final sentinel", f.Name, phantom.start, len(df.code))
		}
	}
}

func checkInstr(t testing.TB, at string, img *image, d *dInstr, in *rtl.Instr, srcs []int32, index map[*rtl.Block]int32, costs *machine.Costs) {
	t.Helper()
	if d.op != in.Op || d.width != in.Width || d.signed != in.Signed || d.dst != int32(in.Dst) || d.disp != in.Disp {
		t.Errorf("%s: decoded op/width/signed/dst/disp %v/%d/%t/%d/%d", at, d.op, d.width, d.signed, d.dst, d.disp)
	}
	if !operandIs(d.a, in.A) || !operandIs(d.b, in.B) || !operandIs(d.c, in.C) {
		t.Errorf("%s: decoded operands %+v %+v %+v", at, d.a, d.b, d.c)
	}
	if want := int64(costs.Of(in.Op, in.Width)); d.lat != want {
		t.Errorf("%s: lat %d, want %d", at, d.lat, want)
	}
	if want := int64(costs.OccOf(in.Op, in.Width)); d.occ != want {
		t.Errorf("%s: occ %d, want %d", at, d.occ, want)
	}
	if fmt.Sprint(d.srcs[:d.nsrc]) != fmt.Sprint(srcs) {
		t.Errorf("%s: srcs %v, want %v", at, d.srcs[:d.nsrc], srcs)
	}
	if in.Op == rtl.Call {
		checkCall(t, at, img, &img.calls[d.call], in)
	}
	if in.Target != nil && d.target != index[in.Target] {
		t.Errorf("%s: target block %d, want %d", at, d.target, index[in.Target])
	}
	if in.Else != nil && d.els != index[in.Else] {
		t.Errorf("%s: else block %d, want %d", at, d.els, index[in.Else])
	}
}

func checkCall(t testing.TB, at string, img *image, c *dCall, in *rtl.Instr) {
	t.Helper()
	if c.name != in.Callee || c.callee != img.byName[in.Callee] {
		t.Errorf("%s: callee %q (%p), want %q", at, c.name, c.callee, in.Callee)
	}
	if len(c.args) != len(in.Args) {
		t.Errorf("%s: %d args, want %d", at, len(c.args), len(in.Args))
		return
	}
	for k, a := range in.Args {
		if !operandIs(c.args[k], a) {
			t.Errorf("%s: arg %d decoded %+v, want %s", at, k, c.args[k], a)
		}
	}
}

// CheckDecode lets the external tests hold compiled paper kernels to the
// same rules.
var CheckDecode = checkDecode

// TestDecodeMatchesGraphRules holds the decoder to the graph rules on the
// generated corpus (seeds 1-200) and on call-heavy mini-C, on every
// machine. The paper kernels are covered in decode_kernels_test.go.
func TestDecodeMatchesGraphRules(t *testing.T) {
	var progs []*rtl.Program
	for seed := int64(1); seed <= 200; seed++ {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		progs = append(progs, &rtl.Program{Fns: []*rtl.Fn{fn}})
	}
	calls, err := minic.Compile(`
		long square(long x) { return x * x; }
		long none() { return 7; }
		long mix(long a, long b, long c) { return square(a) + square(3) + none() + c * b; }
		long fib(long n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, calls)
	for _, m := range machine.All() {
		for _, p := range progs {
			fp, err := rtl.Flatten(p)
			if err != nil {
				t.Fatal(err)
			}
			checkDecode(t, fp, m)
		}
	}
}

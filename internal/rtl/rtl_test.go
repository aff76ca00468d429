package rtl

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestWidthValid(t *testing.T) {
	for _, w := range []Width{W1, W2, W4, W8} {
		if !w.Valid() {
			t.Errorf("width %d should be valid", w)
		}
	}
	for _, w := range []Width{0, 3, 5, 6, 7, 9, 16} {
		if Width(w).Valid() {
			t.Errorf("width %d should be invalid", w)
		}
	}
}

func TestWidthMask(t *testing.T) {
	cases := map[Width]uint64{
		W1: 0xFF, W2: 0xFFFF, W4: 0xFFFFFFFF, W8: ^uint64(0),
	}
	for w, want := range cases {
		if got := w.Mask(); got != want {
			t.Errorf("mask(%d) = %#x, want %#x", w, got, want)
		}
	}
}

func TestOperandAccessors(t *testing.T) {
	if r, ok := R(5).IsReg(); !ok || r != 5 {
		t.Errorf("R(5).IsReg() = %v, %v", r, ok)
	}
	if _, ok := R(5).IsConst(); ok {
		t.Error("register operand should not be const")
	}
	if c, ok := C(-9).IsConst(); !ok || c != -9 {
		t.Errorf("C(-9).IsConst() = %v, %v", c, ok)
	}
	if _, ok := (Operand{}).IsReg(); ok {
		t.Error("empty operand should not be a register")
	}
}

func TestInstrDefUses(t *testing.T) {
	cases := []struct {
		in     *Instr
		def    Reg
		hasDef bool
		uses   []Reg
	}{
		{BinI(Add, 3, R(1), R(2)), 3, true, []Reg{1, 2}},
		{MovI(4, C(7)), 4, true, nil},
		{LoadI(5, R(1), 8, W4, true), 5, true, []Reg{1}},
		{StoreI(R(1), 0, R(2), W2), NoReg, false, []Reg{1, 2}},
		{BranchI(R(9), nil, nil), NoReg, false, []Reg{9}},
		{RetI(R(0)), NoReg, false, []Reg{0}},
		{InsertI(6, R(1), R(2), C(3), W1), 6, true, []Reg{1, 2}},
		{CallI(7, "f", R(1), C(2), R(3)), 7, true, []Reg{1, 3}},
	}
	// The instructions need not form a valid function: Flatten checks
	// nothing but edges, and Def and SrcRegs read one instruction each.
	f := NewFn("t", 0)
	for _, tc := range cases {
		f.Entry().Instrs = append(f.Entry().Instrs, tc.in)
	}
	fp, err := Flatten(NewProgram(f))
	if err != nil {
		t.Fatal(err)
	}
	ff := &fp.Fns[0]
	for i, tc := range cases {
		d, ok := ff.Def(int32(i))
		if ok != tc.hasDef || (ok && d != tc.def) {
			t.Errorf("%s: Def() = %v,%v want %v,%v", tc.in, d, ok, tc.def, tc.hasDef)
		}
		if uses := ff.SrcRegs(int32(i), nil); !slices.Equal(uses, tc.uses) {
			t.Errorf("%s: SrcRegs %v, want %v", tc.in, uses, tc.uses)
		}
	}
}

func TestSuccs(t *testing.T) {
	f := NewFn("t", 0)
	a := f.Entry()
	b := f.NewBlock("b")
	c := f.NewBlock("c")
	cond := f.NewReg()
	a.Instrs = append(a.Instrs, MovI(cond, C(1)), BranchI(R(cond), b, c))
	b.Instrs = append(b.Instrs, JumpI(c))
	c.Instrs = append(c.Instrs, RetI(Operand{}))
	if s := a.Succs(); len(s) != 2 || s[0] != b || s[1] != c {
		t.Errorf("branch succs wrong: %v", s)
	}
	if s := b.Succs(); len(s) != 1 || s[0] != c {
		t.Errorf("jump succs wrong: %v", s)
	}
	if s := c.Succs(); s != nil {
		t.Errorf("ret should have no succs: %v", s)
	}
}

func TestVerifyCatchesBadShapes(t *testing.T) {
	mk := func() *Fn {
		f := NewFn("victim", 1)
		f.Entry().Instrs = append(f.Entry().Instrs, RetI(R(f.Params[0])))
		return f
	}
	if err := mk().Verify(); err != nil {
		t.Fatalf("valid fn rejected: %v", err)
	}
	cases := map[string]func(f *Fn){
		"empty block": func(f *Fn) { f.Entry().Instrs = nil },
		"terminator in middle": func(f *Fn) {
			f.Entry().Instrs = append(f.Entry().Instrs, MovI(f.NewReg(), C(0)))
		},
		"missing terminator": func(f *Fn) { f.Entry().Instrs = []*Instr{MovI(f.NewReg(), C(0))} },
		"invalid width": func(f *Fn) {
			f.Entry().Instrs = []*Instr{LoadI(f.NewReg(), R(0), 0, 3, false), RetI(C(0))}
		},
		"register outside pool": func(f *Fn) { f.Entry().Instrs = []*Instr{MovI(999, C(0)), RetI(C(0))} },
		"jump to foreign block": func(f *Fn) {
			foreign := NewFn("o", 0).NewBlock("x")
			f.Entry().Instrs = []*Instr{JumpI(foreign)}
		},
		"call without callee": func(f *Fn) {
			f.Entry().Instrs = []*Instr{CallI(NoReg, ""), RetI(C(0))}
		},
	}
	for name, breakIt := range cases {
		f := mk()
		breakIt(f)
		err := f.Verify()
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), "victim") {
			t.Errorf("%s: error %q does not name the function", name, err)
		}
	}
}

func TestProgramLookupAndReplace(t *testing.T) {
	f1 := NewFn("f", 0)
	f1.Entry().Instrs = []*Instr{RetI(C(1))}
	p := NewProgram(f1)
	if got, ok := p.Lookup("f"); !ok || got != f1 {
		t.Error("lookup failed")
	}
	f2 := NewFn("f", 0)
	f2.Entry().Instrs = []*Instr{RetI(C(2))}
	p.Add(f2)
	if got, _ := p.Lookup("f"); got != f2 {
		t.Error("Add should replace same-named function")
	}
	if len(p.Fns) != 1 {
		t.Errorf("replacement should not grow Fns: %d", len(p.Fns))
	}
}

func TestEvalBinaryAgainstGo(t *testing.T) {
	err := quick.Check(func(a, b int64) bool {
		checks := []struct {
			op   Op
			want int64
		}{
			{Add, a + b}, {Sub, a - b}, {Mul, a * b},
			{And, a & b}, {Or, a | b}, {Xor, a ^ b},
		}
		for _, c := range checks {
			got, ok := EvalBinary(c.op, a, b, true)
			if !ok || got != c.want {
				return false
			}
		}
		if b != 0 {
			if got, ok := EvalBinary(Div, a, b, false); !ok || got != int64(uint64(a)/uint64(b)) {
				return false
			}
		}
		sh := b & 63
		if got, _ := EvalBinary(Shl, a, sh, false); got != a<<uint(sh) {
			return false
		}
		if got, _ := EvalBinary(Shr, a, sh, true); got != a>>uint(sh) {
			return false
		}
		if got, _ := EvalBinary(SetLT, a, b, true); (got == 1) != (a < b) {
			return false
		}
		if got, _ := EvalBinary(SetLT, a, b, false); (got == 1) != (uint64(a) < uint64(b)) {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestEvalDivTraps(t *testing.T) {
	if _, ok := EvalBinary(Div, 5, 0, true); ok {
		t.Error("division by zero must not fold")
	}
	if _, ok := EvalBinary(Rem, 5, 0, false); ok {
		t.Error("remainder by zero must not fold")
	}
	// INT64_MIN / -1 wraps rather than trapping the folder.
	if v, ok := EvalBinary(Div, -1<<63, -1, true); !ok || v != -1<<63 {
		t.Errorf("INT64_MIN/-1 = %d, %v", v, ok)
	}
}

func TestExtractInsertRoundTrip(t *testing.T) {
	err := quick.Check(func(wide int64, val int64, offRaw uint8, wSel uint8) bool {
		widths := []Width{W1, W2, W4}
		w := widths[int(wSel)%len(widths)]
		maxOff := 8 - int64(w)
		off := int64(offRaw) % (maxOff + 1)
		inserted := EvalInsert(wide, val, off, w)
		got := EvalExtract(inserted, off, w, false)
		want := val & int64(w.Mask())
		if got != want {
			return false
		}
		// Bytes outside the field are untouched.
		for i := int64(0); i < 8; i++ {
			if i >= off && i < off+int64(w) {
				continue
			}
			if EvalExtract(inserted, i, W1, false) != EvalExtract(wide, i, W1, false) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestExtractSignExtends(t *testing.T) {
	// 0xFF at offset 2, extracted signed as a byte, is -1.
	wide := EvalInsert(0, 0xFF, 2, W1)
	if got := EvalExtract(wide, 2, W1, true); got != -1 {
		t.Errorf("signed extract = %d, want -1", got)
	}
	if got := EvalExtract(wide, 2, W1, false); got != 255 {
		t.Errorf("unsigned extract = %d, want 255", got)
	}
}

func TestExtendMatchesGoConversions(t *testing.T) {
	err := quick.Check(func(v int64) bool {
		return Extend(v, W1, true) == int64(int8(v)) &&
			Extend(v, W1, false) == int64(uint8(v)) &&
			Extend(v, W2, true) == int64(int16(v)) &&
			Extend(v, W2, false) == int64(uint16(v)) &&
			Extend(v, W4, true) == int64(int32(v)) &&
			Extend(v, W4, false) == int64(uint32(v)) &&
			Extend(v, W8, true) == v
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestPrinterShapes(t *testing.T) {
	f := NewFn("dot", 2)
	r := f.NewReg()
	f.Entry().Instrs = []*Instr{
		LoadI(r, R(f.Params[0]), 4, W2, true),
		RetI(R(r)),
	}
	s := f.String()
	for _, want := range []string{"func dot(r0, r1)", "M.2s[r0+4]", "ret r2"} {
		if !strings.Contains(s, want) {
			t.Errorf("printer output missing %q:\n%s", want, s)
		}
	}
	dot := f.Dot()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "entry") {
		t.Errorf("dot output malformed:\n%s", dot)
	}
}

package minic

import (
	"strings"
	"testing"

	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/sim"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`int x = 0x1F + 'a' - 10; // comment
	/* block
	   comment */ x <<= 2;`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{
		TokKwInt, TokIdent, TokAssign, TokInt, TokPlus, TokChar, TokMinus,
		TokInt, TokSemi, TokIdent, TokShlAssign, TokInt, TokSemi, TokEOF,
	}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[3].Val != 0x1F {
		t.Errorf("hex literal = %d", toks[3].Val)
	}
	if toks[5].Val != 'a' {
		t.Errorf("char literal = %d", toks[5].Val)
	}
}

func TestLexOperators(t *testing.T) {
	src := "== != <= >= << >> && || ++ -- += -= *= /= %= &= |= ^= <<= >>= ? :"
	want := []TokKind{
		TokEq, TokNe, TokLe, TokGe, TokShl, TokShr, TokAndAnd, TokOrOr,
		TokInc, TokDec, TokPlusAssign, TokMinusAssign, TokStarAssign,
		TokSlashAssign, TokPercentAssign, TokAmpAssign, TokPipeAssign,
		TokCaretAssign, TokShlAssign, TokShrAssign, TokQuestion, TokColon,
	}
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", "/* unterminated", "'ab", `'\q'`} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("first token at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("x at %v, want 2:3", toks[1].Pos)
	}
}

func TestParseTypes(t *testing.T) {
	src := `
	void f(char a, unsigned char b, short c, unsigned short d,
	       int e, unsigned g, long h, unsigned long i,
	       int *p, unsigned char **q, short arr[]) {}
	`
	file, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fd := file.Funcs[0]
	want := []string{
		"char", "unsigned char", "short", "unsigned short",
		"int", "unsigned int", "long", "unsigned long",
		"int*", "unsigned char**", "short*",
	}
	if len(fd.Params) != len(want) {
		t.Fatalf("got %d params", len(fd.Params))
	}
	for i, w := range want {
		if got := fd.Params[i].Type.String(); got != w {
			t.Errorf("param %d: got %s, want %s", i, got, w)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// 1 + 2 * 3 must parse as 1 + (2*3); folding happens later, so check
	// the tree.
	file, err := Parse(`int f() { return 1 + 2 * 3 == 7; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := file.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	eq, ok := ret.X.(*Binary)
	if !ok || eq.Op != TokEq {
		t.Fatalf("top is %T, want ==", ret.X)
	}
	add, ok := eq.X.(*Binary)
	if !ok || add.Op != TokPlus {
		t.Fatalf("left of == is %v, want +", eq.X)
	}
	mul, ok := add.Y.(*Binary)
	if !ok || mul.Op != TokStar {
		t.Fatalf("right of + is %v, want *", add.Y)
	}
}

func TestParseStatements(t *testing.T) {
	src := `
	int f(int n) {
		int i, acc = 0;
		for (i = 0; i < n; i++) {
			if (i % 2 == 0) acc += i;
			else acc -= i;
			while (acc > 100) { acc /= 2; }
			if (acc < -100) break;
		}
		do_nothing: ;
		return acc > 0 ? acc : -acc;
	}
	void do_nothing() { return; }
	`
	// Labels are not supported; rewrite without it.
	src = strings.Replace(src, "do_nothing: ;", ";", 1)
	if _, err := Compile(src); err != nil {
		t.Fatalf("compile: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`int f( { }`,
		`int f() { return }`,
		`int f() { x = ; }`,
		`int f() { if x { } }`,
		`int`,
		`int f() {`,
		`unsigned void f() {}`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSemaErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{`int f() { return x; }`, "undeclared"},
		{`int f(int a, int a) {}`, "redeclared"},
		{`int f() { int x; int x; return 0; }`, "redeclared"},
		{`int f() { return f(1); }`, "expects 0 arguments"},
		{`int f() { return g(); }`, "undefined function"},
		{`int f(int x) { return *x; }`, "dereference"},
		{`int f(int x) { return x[0]; }`, "indexing"},
		{`int f(int *p) { return p * 2; }`, "operator"},
		{`void f() { return 1; }`, "void"},
		{`int f() { return; }`, "without value"},
		{`int f() { break; return 0; }`, "outside loop"},
		{`int f() { continue; return 0; }`, "outside loop"},
		{`int f() { 3 = 4; return 0; }`, "not assignable"},
		{`int f() {} int f() {}`, "redefined"},
		{`int f(void *p) { return p[0]; }`, "void"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("Compile(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Compile(%q) error %q does not mention %q", c.src, err, c.wantSub)
		}
	}
}

func TestScopesShadowing(t *testing.T) {
	src := `
	int f(int x) {
		int y = x;
		{
			int x = 10;
			y = y + x;
		}
		return y + x;
	}
	`
	if _, err := Compile(src); err != nil {
		t.Fatalf("shadowing should be legal: %v", err)
	}
}

func TestCodegenVerifies(t *testing.T) {
	srcs := []string{
		`int f() { return 0; }`,
		`void g() {}`,
		`int h(int n) { while (1) { if (n) return n; n = n + 1; } }`,
		`int k(int n) { int i, s = 0; for (i = 0; i < n; i++) { if (i == 3) continue; s += i; } return s; }`,
		`long m(long a, long b) { return a && b || !a; }`,
		`int c(char *p, int i) { return p[i] + p[i+1]; }`,
		`long cast(long v) { return (char)v + (unsigned short)v + (int)v; }`,
	}
	for _, src := range srcs {
		prog, err := Compile(src)
		if err != nil {
			t.Errorf("Compile(%q): %v", src, err)
			continue
		}
		for _, f := range prog.Fns {
			if err := f.Verify(); err != nil {
				t.Errorf("%q: %v", src, err)
			}
		}
	}
}

func TestCodegenLoadStoreWidths(t *testing.T) {
	prog, err := Compile(`
		void f(char *a, short *b, int *c, long *d, unsigned char *e) {
			a[0] = 1; b[0] = 1; c[0] = 1; d[0] = 1;
			a[1] = e[1];
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := prog.Lookup("f")
	widths := map[rtl.Width]int{}
	signedLoads, unsignedLoads := 0, 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == rtl.Store {
				widths[in.Width]++
			}
			if in.Op == rtl.Load {
				if in.Signed {
					signedLoads++
				} else {
					unsignedLoads++
				}
			}
		}
	}
	if widths[rtl.W1] != 2 || widths[rtl.W2] != 1 || widths[rtl.W4] != 1 || widths[rtl.W8] != 1 {
		t.Errorf("store widths = %v", widths)
	}
	if unsignedLoads != 1 || signedLoads != 0 {
		t.Errorf("loads signed=%d unsigned=%d; unsigned char load must be unsigned", signedLoads, unsignedLoads)
	}
}

func TestFoldNarrow(t *testing.T) {
	if got := foldNarrow(0x1FF, TypeUChar); got != 0xFF {
		t.Errorf("uchar fold = %d", got)
	}
	if got := foldNarrow(0xFF, TypeChar); got != -1 {
		t.Errorf("char fold = %d", got)
	}
	if got := foldNarrow(0x18000, TypeShort); got != -0x8000 {
		t.Errorf("short fold = %d", got)
	}
	if got := foldNarrow(-5, TypeLong); got != -5 {
		t.Errorf("long fold = %d", got)
	}
}

func TestTypeEqualAndSize(t *testing.T) {
	if !PtrTo(TypeChar).Equal(PtrTo(TypeChar)) {
		t.Error("identical pointer types should be equal")
	}
	if PtrTo(TypeChar).Equal(PtrTo(TypeUChar)) {
		t.Error("char* != unsigned char*")
	}
	if TypeInt.Equal(TypeUInt) {
		t.Error("int != unsigned")
	}
	sizes := map[*Type]int64{
		TypeChar: 1, TypeShort: 2, TypeInt: 4, TypeLong: 8,
		PtrTo(TypeChar): 8, TypeVoid: 0,
	}
	for ty, want := range sizes {
		if got := ty.Size(); got != want {
			t.Errorf("size(%s) = %d, want %d", ty, got, want)
		}
	}
}

func TestGlobalDeclParsing(t *testing.T) {
	file, err := Parse(`
		int a;
		int b = 5;
		short c[4];
		char d[] = {1, -2, 'x'};
		unsigned char e[10] = {255};
		int f() { return a + b; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Globals) != 5 || len(file.Funcs) != 1 {
		t.Fatalf("globals=%d funcs=%d", len(file.Globals), len(file.Funcs))
	}
	d := file.Globals[3]
	if d.Count != 3 || len(d.Init) != 3 || d.Init[1] != -2 || d.Init[2] != 'x' {
		t.Errorf("d parsed wrong: %+v", d)
	}
	if file.Globals[4].Count != 10 || len(file.Globals[4].Init) != 1 {
		t.Errorf("partial initializer parsed wrong: %+v", file.Globals[4])
	}
}

func TestGlobalErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{`int x; int x;`, "redefined"},
		{`int x; void x() {}`, "already a global"},
		{`int a[2] = {1, 2, 3};`, "too many initializers"},
		{`int a[];`, "needs a size"},
		{`int *p[3];`, "pointers"},
		{`void v;`, "void"},
		{`int a[0];`, "positive"},
		{`int f() { tbl = 0; return 0; } int tbl[2];`, "not assignable"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("Compile(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Compile(%q) error %q does not mention %q", c.src, err, c.wantSub)
		}
	}
}

func TestGlobalLayout(t *testing.T) {
	prog, err := Compile(`
		char a[3];
		long b;
		short c[2] = {7, 8};
		long use() { return b + a[0] + c[1]; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Globals) != 3 {
		t.Fatalf("globals = %d", len(prog.Globals))
	}
	for i, g := range prog.Globals {
		if g.Addr%8 != 0 {
			t.Errorf("global %d at unaligned address %d", i, g.Addr)
		}
		if i > 0 {
			prev := prog.Globals[i-1]
			if g.Addr < prev.Addr+prev.Size {
				t.Errorf("globals %d and %d overlap", i-1, i)
			}
		}
	}
	c := prog.Globals[2]
	if c.Size != 4 || len(c.Init) != 4 || c.Init[0] != 7 || c.Init[2] != 8 {
		t.Errorf("c encoding wrong: %+v", c)
	}
}

// TestPointerIntArithmeticScales runs p - n, p += n and p -= n, with n a
// register and a constant, on each pointer width: the integer side must be
// scaled by the element size before it meets the address.
func TestPointerIntArithmeticScales(t *testing.T) {
	const base = 256
	for _, el := range []struct {
		typ string
		w   rtl.Width
	}{{"char", rtl.W1}, {"short", rtl.W2}, {"int", rtl.W4}, {"long", rtl.W8}} {
		w := int64(el.w)
		cases := []struct {
			body string
			args []int64
			want int64 // the element index the function must return
		}{
			{"T *q; q = p - n; return *q;", []int64{base + 3*w, 2}, 1},
			{"T *q; q = p - 2; return *q;", []int64{base + 3*w, 0}, 1},
			{"p += n; return *p;", []int64{base, 2}, 2},
			{"p += 3; return *p;", []int64{base, 0}, 3},
			{"p -= n; return *p;", []int64{base + 3*w, 3}, 0},
			{"p -= 1; return *p;", []int64{base + 3*w, 0}, 2},
		}
		for _, tc := range cases {
			src := strings.ReplaceAll("T f(T *p, int n) { "+tc.body+" }", "T", el.typ)
			prog, err := Compile(src)
			if err != nil {
				t.Errorf("Compile(%q): %v", src, err)
				continue
			}
			s := sim.New(prog, machine.Alpha(), 1024)
			s.WriteInts(base, el.w, []int64{10, 11, 12, 13})
			res, err := s.Run("f", tc.args...)
			s.Release()
			if err != nil {
				t.Errorf("%q%v: %v", src, tc.args, err)
				continue
			}
			if res.Ret != 10+tc.want {
				t.Errorf("%q%v = %d, want element %d (%d)", src, tc.args, res.Ret, tc.want, 10+tc.want)
			}
		}
	}
}

package cfg_test

import (
	"slices"
	"testing"

	"macc/internal/cfg"
	"macc/internal/rtl"
)

// buildLoopFn constructs the canonical counted loop:
// entry -> header -> {body -> latch -> header | exit}.
func buildLoopFn() (*rtl.Fn, map[string]*rtl.Block) {
	f := rtl.NewFn("loopy", 1)
	entry := f.Entry()
	header := f.NewBlock("header")
	body := f.NewBlock("body")
	latch := f.NewBlock("latch")
	exit := f.NewBlock("exit")

	i := f.NewReg()
	cond := f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(i, rtl.C(0)), rtl.JumpI(header)}
	header.Instrs = []*rtl.Instr{
		rtl.SBinI(rtl.SetLT, cond, rtl.R(i), rtl.R(f.Params[0])),
		rtl.BranchI(rtl.R(cond), body, exit),
	}
	body.Instrs = []*rtl.Instr{rtl.JumpI(latch)}
	latch.Instrs = []*rtl.Instr{
		rtl.BinI(rtl.Add, i, rtl.R(i), rtl.C(1)),
		rtl.JumpI(header),
	}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.R(i))}
	return f, map[string]*rtl.Block{
		"entry": entry, "header": header, "body": body, "latch": latch, "exit": exit,
	}
}

// flatGraph flattens f and builds its FlatGraph, returning a lookup from
// block label to block index.
func flatGraph(t *testing.T, f *rtl.Fn) (*cfg.FlatGraph, func(b *rtl.Block) int32) {
	t.Helper()
	fp, err := rtl.Flatten(rtl.NewProgram(f))
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.NewFlat(fp, 0)
	return g, func(b *rtl.Block) int32 {
		for bi, fb := range g.F.Blocks {
			if fp.Syms[fb.Name] == b.Name {
				return int32(bi)
			}
		}
		t.Fatalf("no block %s", b.Name)
		return -1
	}
}

// TestFlatEdges pins the edge order of the one CFG: FlatSuccs reports a
// branch's Target before its Else, and FlatGraph.Preds lists predecessors in
// the order the depth-first walk from the entry discovers the edges, not in
// block order.
func TestFlatEdges(t *testing.T) {
	p, err := rtl.ParseProgram(`func f(r0, r1) {
entry:
	r2 = M.4u[r0+8]
	r3 = r2 + 17
	if r3 goto body else exit
body:
	M.4[r1-4] = r3
	jump exit
exit:
	ret r3
}
`)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := rtl.Flatten(p)
	if err != nil {
		t.Fatal(err)
	}
	f := &fp.Fns[0]
	names := func(bis []int32) []string {
		var out []string
		for _, bi := range bis {
			out = append(out, fp.Syms[f.Blocks[bi].Name])
		}
		return out
	}
	for bi, want := range [][]string{{"body", "exit"}, {"exit"}, nil} {
		if got := names(cfg.FlatSuccs(f, int32(bi), nil)); !slices.Equal(got, want) {
			t.Errorf("block %d succs = %v, want %v", bi, got, want)
		}
	}
	// entry's walk reaches exit through body first, then by its own Else.
	g := cfg.NewFlat(fp, 0)
	for bi, want := range [][]string{nil, {"entry"}, {"body", "entry"}} {
		if got := names(g.Preds[bi]); !slices.Equal(got, want) {
			t.Errorf("block %d preds = %v, want %v", bi, got, want)
		}
	}
}

func TestPredsAndReachability(t *testing.T) {
	f, bs := buildLoopFn()
	g, at := flatGraph(t, f)
	// Discovery order: entry's jump first, then the back edge from latch.
	if got, want := g.Preds[at(bs["header"])], []int32{at(bs["entry"]), at(bs["latch"])}; !slices.Equal(got, want) {
		t.Errorf("header preds = %v, want %v", got, want)
	}
	for name, b := range bs {
		if !g.Reachable(at(b)) {
			t.Errorf("%s should be reachable", name)
		}
	}
	dead := f.NewBlock("dead")
	dead.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(0))}
	g, at = flatGraph(t, f)
	if g.Reachable(at(dead)) {
		t.Error("dead block reported reachable")
	}
}

func TestDominators(t *testing.T) {
	f, bs := buildLoopFn()
	g, at := flatGraph(t, f)
	entry, header, body, latch, exit :=
		at(bs["entry"]), at(bs["header"]), at(bs["body"]), at(bs["latch"]), at(bs["exit"])

	cases := []struct {
		a, b int32
		want bool
	}{
		{entry, exit, true},
		{header, body, true},
		{header, latch, true},
		{header, exit, true},
		{body, latch, true},
		{body, exit, false}, // exit reachable from header directly
		{latch, header, false},
		{body, body, true},
	}
	for _, c := range cases {
		if got := g.Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if g.Idom(body) != header {
		t.Errorf("idom(body) = %d, want header", g.Idom(body))
	}
	if g.Idom(entry) != entry {
		t.Error("entry must be its own idom")
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f := rtl.NewFn("d", 1)
	a := f.Entry()
	b := f.NewBlock("b")
	c := f.NewBlock("c")
	d := f.NewBlock("d")
	a.Instrs = []*rtl.Instr{rtl.BranchI(rtl.R(f.Params[0]), b, c)}
	b.Instrs = []*rtl.Instr{rtl.JumpI(d)}
	c.Instrs = []*rtl.Instr{rtl.JumpI(d)}
	d.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(0))}
	g, at := flatGraph(t, f)
	if g.Idom(at(d)) != at(a) {
		t.Errorf("idom(join) = %d, want entry", g.Idom(at(d)))
	}
	if g.Dominates(at(b), at(d)) || g.Dominates(at(c), at(d)) {
		t.Error("diamond arms must not dominate the join")
	}
}

func TestFindLoops(t *testing.T) {
	f, bs := buildLoopFn()
	g, at := flatGraph(t, f)
	loops := g.FindLoops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != at(bs["header"]) || l.Latch != at(bs["latch"]) {
		t.Errorf("wrong header/latch: %v/%v", l.Header, l.Latch)
	}
	if len(l.Blocks) != 3 {
		t.Errorf("loop has %d blocks, want 3 (header, body, latch)", len(l.Blocks))
	}
	if l.Contains(at(bs["exit"])) || l.Contains(at(bs["entry"])) {
		t.Error("loop contains out-of-loop blocks")
	}
	if len(l.Exits) != 1 || l.Exits[0] != at(bs["exit"]) {
		t.Errorf("exits = %v", l.Exits)
	}
}

// buildNestFn constructs two nested loops:
// entry -> oh -> ih -> ib -> ih (inner back); ih -> ol -> oh (outer back);
// oh -> exit.
func buildNestFn() (f *rtl.Fn, oh, ih, ib *rtl.Block) {
	f = rtl.NewFn("nest", 1)
	entry := f.Entry()
	oh = f.NewBlock("outerHeader")
	ih = f.NewBlock("innerHeader")
	ib = f.NewBlock("innerBody")
	ol := f.NewBlock("outerLatch")
	exit := f.NewBlock("exit")
	c1, c2, c3 := f.NewReg(), f.NewReg(), f.NewReg()
	entry.Instrs = []*rtl.Instr{rtl.MovI(c1, rtl.C(1)), rtl.MovI(c2, rtl.C(1)), rtl.MovI(c3, rtl.C(1)), rtl.JumpI(oh)}
	oh.Instrs = []*rtl.Instr{rtl.BranchI(rtl.R(c1), ih, exit)}
	ih.Instrs = []*rtl.Instr{rtl.BranchI(rtl.R(c2), ib, ol)}
	ib.Instrs = []*rtl.Instr{rtl.JumpI(ih)}
	ol.Instrs = []*rtl.Instr{rtl.JumpI(oh)}
	exit.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(0))}
	return f, oh, ih, ib
}

func TestNestedLoopsInnermostFirst(t *testing.T) {
	f, oh, ih, ib := buildNestFn()
	g, at := flatGraph(t, f)
	loops := g.FindLoops()
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	if loops[0].Header != at(ih) {
		t.Error("innermost loop must come first")
	}
	if loops[1].Header != at(oh) {
		t.Error("outer loop second")
	}
	if !loops[1].Contains(at(ih)) || !loops[1].Contains(at(ib)) {
		t.Error("outer loop must contain the inner loop's blocks")
	}
}

func TestEnsurePreheaderReusesLonePred(t *testing.T) {
	f, bs := buildLoopFn()
	g, at := flatGraph(t, f)
	l := g.FindLoops()[0]
	ph := g.EnsurePreheader(l)
	if ph != at(bs["entry"]) {
		t.Errorf("expected the entry block to serve as preheader, got %v", ph)
	}
	if l.Preheader != ph {
		t.Error("preheader not recorded")
	}
}

func TestEnsurePreheaderInsertsBlock(t *testing.T) {
	// Give the header two outside predecessors so a forwarding block is
	// required.
	f, bs := buildLoopFn()
	extra := f.NewBlock("extra")
	extra.Instrs = []*rtl.Instr{rtl.JumpI(bs["header"])}
	bs["entry"].Term().Target = extra
	// entry -> extra -> header is still one pred; add a branch in entry.
	cond := f.NewReg()
	bs["entry"].Instrs = []*rtl.Instr{
		rtl.MovI(bs["entry"].Instrs[0].Dst, rtl.C(0)),
		rtl.MovI(cond, rtl.C(1)),
		rtl.BranchI(rtl.R(cond), extra, bs["header"]),
	}
	g, at := flatGraph(t, f)
	var l *cfg.FlatLoop
	for _, cand := range g.FindLoops() {
		if cand.Header == at(bs["header"]) {
			l = cand
		}
	}
	if l == nil {
		t.Fatal("loop not found")
	}
	ff := g.F
	before := len(ff.Blocks)
	ph := g.EnsurePreheader(l)
	if len(ff.Blocks) != before+1 {
		t.Fatal("no forwarding block inserted")
	}
	term := func(bi int32) int32 {
		ti, _, ok := ff.TermIdx(bi)
		if !ok {
			t.Fatalf("block %d has no terminator", bi)
		}
		return ti
	}
	if pt := term(ph); ff.Op[pt] != rtl.Jump || ff.Target[pt] != at(bs["header"]) {
		t.Error("preheader must jump to the header")
	}
	// Both outside edges now route through the preheader.
	if ff.Else[term(at(bs["entry"]))] != ph || ff.Target[term(at(extra))] != ph {
		t.Error("outside edges not rerouted through preheader")
	}
	// The back edge must NOT be rerouted.
	if ff.Target[term(at(bs["latch"]))] != at(bs["header"]) {
		t.Error("back edge must still target the header")
	}
	if err := g.P.VerifyFn(0); err != nil {
		t.Errorf("function invalid after preheader insertion: %v", err)
	}
}

// sameGraph reports where two graphs of the same function disagree.
func sameGraph(t *testing.T, what string, got, want *cfg.FlatGraph) {
	t.Helper()
	if !slices.Equal(got.RPO, want.RPO) {
		t.Errorf("%s: RPO %v, want %v", what, got.RPO, want.RPO)
	}
	if len(got.Preds) != len(want.Preds) {
		t.Fatalf("%s: %d pred lists, want %d", what, len(got.Preds), len(want.Preds))
	}
	for bi := range want.Preds {
		b := int32(bi)
		if !slices.Equal(got.Preds[bi], want.Preds[bi]) {
			t.Errorf("%s: block %d preds %v, want %v", what, bi, got.Preds[bi], want.Preds[bi])
		}
		if got.Reachable(b) != want.Reachable(b) || got.Idom(b) != want.Idom(b) {
			t.Errorf("%s: block %d reachable/idom %t/%d, want %t/%d", what, bi,
				got.Reachable(b), got.Idom(b), want.Reachable(b), want.Idom(b))
		}
	}
}

// TestNewFlatIntoReusesStorage rebuilds one graph across functions of
// different sizes: each rebuild must equal a fresh NewFlat, and a rebuild
// on a graph already sized for the function must allocate nothing.
func TestNewFlatIntoReusesStorage(t *testing.T) {
	nest, _, _, _ := buildNestFn()
	loop, _ := buildLoopFn()
	dead := loop.NewBlock("dead")
	dead.Instrs = []*rtl.Instr{rtl.RetI(rtl.C(0))}
	var fps []*rtl.FlatProgram
	for _, f := range []*rtl.Fn{nest, loop} {
		fp, err := rtl.Flatten(rtl.NewProgram(f))
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	g := new(cfg.FlatGraph)
	for _, fp := range []*rtl.FlatProgram{fps[0], fps[1], fps[0], fps[1]} {
		what := fp.Syms[fp.Fns[0].Name]
		sameGraph(t, what, cfg.NewFlatInto(fp, 0, g), cfg.NewFlat(fp, 0))
	}
	for _, fp := range fps {
		cfg.NewFlatInto(fp, 0, g)
		if n := testing.AllocsPerRun(20, func() { cfg.NewFlatInto(fp, 0, g) }); n != 0 {
			t.Errorf("%s: NewFlatInto on a sized graph allocates %.0f objects", fp.Syms[fp.Fns[0].Name], n)
		}
	}
}

package minic

import (
	"fmt"
	"math/bits"

	"macc/internal/rtl"
)

// GlobalBase is where file-scope data is laid out in simulated memory.
// Harness-managed buffers should be placed above the program's data segment
// (rtl.Program.Globals reports the extent).
const GlobalBase = int64(64)

// Lower translates a checked file to an RTL program. Registers hold values
// in a canonical form: every integer value is kept sign- or zero-extended to
// 64 bits according to its static type, so arithmetic can proceed at full
// register width (the Alpha convention the paper's code follows) while loads
// and stores carry the narrow access widths the coalescer cares about.
// Lower does not verify its output; the compile driver (macc.OptimizeFlat)
// verifies every function before any pass runs.
func Lower(file *File) (*rtl.Program, error) {
	prog := rtl.NewProgram()
	addr := GlobalBase
	for _, gd := range file.Globals {
		addr = (addr + 7) &^ 7
		gd.Sym.Addr = addr
		prog.Globals = append(prog.Globals, &rtl.Global{
			Name: gd.Name,
			Addr: addr,
			Size: gd.Sym.Size(),
			Init: encodeInit(gd),
		})
		addr += gd.Sym.Size()
	}
	for _, fd := range file.Funcs {
		g := &gen{fd: fd}
		fn, err := g.lowerFunc()
		if err != nil {
			return nil, err
		}
		prog.Add(fn)
	}
	return prog, nil
}

// encodeInit serializes a global's initializer little-endian at its element
// width, truncating each value as a store would.
func encodeInit(gd *GlobalDecl) []byte {
	w := gd.Elem.Size()
	out := make([]byte, int64(len(gd.Init))*w)
	for i, v := range gd.Init {
		for j := int64(0); j < w; j++ {
			out[int64(i)*w+j] = byte(uint64(v) >> (8 * uint(j)))
		}
	}
	return out
}

type loopCtx struct {
	brk  *rtl.Block // break target
	cont *rtl.Block // continue target
}

type gen struct {
	fd    *FuncDecl
	f     *rtl.Fn
	cur   *rtl.Block
	loops []loopCtx
	nloop int // loops lowered so far; numbers header names uniquely
}

// loopName numbers loop-structure blocks so every loop in a function has a
// distinct header label ("loop", "loop2", ...). Optimization remarks key on
// the header name, so colliding labels would merge unrelated loops' remarks.
func (g *gen) loopName(base string) string {
	if g.nloop <= 1 {
		return base
	}
	return fmt.Sprintf("%s%d", base, g.nloop)
}

func (g *gen) lowerFunc() (*rtl.Fn, error) {
	g.f = rtl.NewFn(g.fd.Name, len(g.fd.Params))
	g.cur = g.f.Entry()
	for i := range g.fd.Params {
		g.fd.Params[i].Sym.Reg = g.f.Params[i]
	}
	if err := g.stmt(g.fd.Body); err != nil {
		return nil, err
	}
	// Seal every unterminated block with a return (the fall-off-the-end
	// path and unreachable continuations created after returns).
	for _, b := range g.f.Blocks {
		if b.Term() == nil {
			if g.fd.Ret.Kind == KVoid {
				b.Instrs = append(b.Instrs, rtl.RetI(rtl.Operand{}))
			} else {
				b.Instrs = append(b.Instrs, rtl.RetI(rtl.C(0)))
			}
		}
	}
	return g.f, nil
}

func (g *gen) emit(in *rtl.Instr) { g.cur.Instrs = append(g.cur.Instrs, in) }

// narrow renormalizes a 64-bit value to the canonical form of type t after
// an implicit conversion (assignment, return, argument passing). Unsigned
// narrow types wrap, which C defines, so they are masked. Signed int and
// long results are left alone: signed overflow is undefined behaviour, so
// the compiler may assume the value is already in range — eliding the
// sign-truncation dance is what keeps "i = i + 1" recognizable as an
// induction step, just as vpo's code in the paper's Figure 1b increments
// the counter directly. Signed char and short still truncate (cheap, and
// kernels storing into narrower locals expect it).
func (g *gen) narrow(o rtl.Operand, t *Type) rtl.Operand {
	if !t.IsInt() || t.Width == rtl.W8 {
		return o
	}
	if !t.Unsigned && t.Width >= rtl.W4 {
		return o
	}
	return g.truncate(o, t)
}

// truncate forces the exact canonical form of type t (used by explicit
// casts, where C requires the conversion).
func (g *gen) truncate(o rtl.Operand, t *Type) rtl.Operand {
	if !t.IsInt() || t.Width == rtl.W8 {
		return o
	}
	if c, ok := o.IsConst(); ok {
		return rtl.C(foldNarrow(c, t))
	}
	if t.Unsigned {
		r := g.f.NewReg()
		g.emit(rtl.BinI(rtl.And, r, o, rtl.C(int64(t.Width.Mask()))))
		return rtl.R(r)
	}
	sh := int64(64 - t.Width.Bits())
	r1 := g.f.NewReg()
	g.emit(rtl.BinI(rtl.Shl, r1, o, rtl.C(sh)))
	r2 := g.f.NewReg()
	g.emit(rtl.SBinI(rtl.Shr, r2, rtl.R(r1), rtl.C(sh)))
	return rtl.R(r2)
}

func foldNarrow(v int64, t *Type) int64 {
	if !t.IsInt() || t.Width == rtl.W8 {
		return v
	}
	u := uint64(v) & t.Width.Mask()
	if !t.Unsigned {
		shift := 64 - uint(t.Width.Bits())
		return int64(u<<shift) >> shift
	}
	return int64(u)
}

func (g *gen) stmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		for _, inner := range st.Stmts {
			if err := g.stmt(inner); err != nil {
				return err
			}
		}
		return nil
	case *DeclStmt:
		st.Sym.Reg = g.f.NewReg()
		if st.Init != nil {
			v, err := g.expr(st.Init)
			if err != nil {
				return err
			}
			g.emit(rtl.MovI(st.Sym.Reg, g.narrow(v, st.Type)))
		} else {
			g.emit(rtl.MovI(st.Sym.Reg, rtl.C(0)))
		}
		return nil
	case *ExprStmt:
		_, err := g.expr(st.X)
		return err
	case *IfStmt:
		cond, err := g.expr(st.Cond)
		if err != nil {
			return err
		}
		thenB := g.f.NewBlock("")
		joinB := g.f.NewBlock("")
		elseB := joinB
		if st.Else != nil {
			elseB = g.f.NewBlock("")
		}
		g.emit(rtl.BranchI(cond, thenB, elseB))
		g.cur = thenB
		if err := g.stmt(st.Then); err != nil {
			return err
		}
		if g.cur.Term() == nil {
			g.emit(rtl.JumpI(joinB))
		}
		if st.Else != nil {
			g.cur = elseB
			if err := g.stmt(st.Else); err != nil {
				return err
			}
			if g.cur.Term() == nil {
				g.emit(rtl.JumpI(joinB))
			}
		}
		g.cur = joinB
		return nil
	case *ForStmt:
		if st.Init != nil {
			if err := g.stmt(st.Init); err != nil {
				return err
			}
		}
		return g.loop(st.Cond, st.Post, st.Body)
	case *WhileStmt:
		return g.loop(st.Cond, nil, st.Body)
	case *DoWhileStmt:
		return g.doWhile(st)
	case *ReturnStmt:
		if st.X != nil {
			v, err := g.expr(st.X)
			if err != nil {
				return err
			}
			g.emit(rtl.RetI(g.narrow(v, g.fd.Ret)))
		} else {
			g.emit(rtl.RetI(rtl.Operand{}))
		}
		g.cur = g.f.NewBlock("") // unreachable continuation
		return nil
	case *BreakStmt:
		g.emit(rtl.JumpI(g.loops[len(g.loops)-1].brk))
		g.cur = g.f.NewBlock("")
		return nil
	case *ContinueStmt:
		g.emit(rtl.JumpI(g.loops[len(g.loops)-1].cont))
		g.cur = g.f.NewBlock("")
		return nil
	}
	return fmt.Errorf("unhandled statement %T", s)
}

// loop lowers for/while into the canonical header/body/latch/exit diamond
// the loop optimizer expects: the termination test lives in the header and
// induction updates live in the latch.
func (g *gen) loop(cond Expr, post Stmt, body Stmt) error {
	g.nloop++
	header := g.f.NewBlock(g.loopName("loop"))
	bodyB := g.f.NewBlock(g.loopName("body"))
	latch := g.f.NewBlock(g.loopName("latch"))
	exit := g.f.NewBlock(g.loopName("exit"))
	g.emit(rtl.JumpI(header))

	g.cur = header
	if cond != nil {
		v, err := g.expr(cond)
		if err != nil {
			return err
		}
		g.emit(rtl.BranchI(v, bodyB, exit))
	} else {
		g.emit(rtl.JumpI(bodyB))
	}

	g.cur = bodyB
	g.loops = append(g.loops, loopCtx{brk: exit, cont: latch})
	err := g.stmt(body)
	g.loops = g.loops[:len(g.loops)-1]
	if err != nil {
		return err
	}
	if g.cur.Term() == nil {
		g.emit(rtl.JumpI(latch))
	}

	g.cur = latch
	if post != nil {
		if err := g.stmt(post); err != nil {
			return err
		}
	}
	if g.cur.Term() == nil {
		g.emit(rtl.JumpI(header))
	}
	g.cur = exit
	return nil
}

// doWhile lowers do/while: the body runs before the first test, so the
// back-edge test lives in the latch.
func (g *gen) doWhile(st *DoWhileStmt) error {
	g.nloop++
	bodyB := g.f.NewBlock(g.loopName("dobody"))
	latch := g.f.NewBlock(g.loopName("dolatch"))
	exit := g.f.NewBlock(g.loopName("doexit"))
	g.emit(rtl.JumpI(bodyB))

	g.cur = bodyB
	g.loops = append(g.loops, loopCtx{brk: exit, cont: latch})
	err := g.stmt(st.Body)
	g.loops = g.loops[:len(g.loops)-1]
	if err != nil {
		return err
	}
	if g.cur.Term() == nil {
		g.emit(rtl.JumpI(latch))
	}

	g.cur = latch
	v, err := g.expr(st.Cond)
	if err != nil {
		return err
	}
	g.emit(rtl.BranchI(v, bodyB, exit))
	g.cur = exit
	return nil
}

// lvalue describes an assignable location: either a register-resident
// variable or a memory reference.
type lvalue struct {
	sym  *VarSym // register variable, or nil
	base rtl.Operand
	disp int64
	t    *Type // value type at the location
}

func (g *gen) lvalueOf(e Expr) (lvalue, error) {
	switch x := e.(type) {
	case *Ident:
		if x.GSym != nil {
			// A global scalar lives in memory at a fixed address.
			return lvalue{base: rtl.C(x.GSym.Addr), t: x.GSym.Elem}, nil
		}
		return lvalue{sym: x.Sym, t: x.Sym.Type}, nil
	case *Unary: // *p
		base, err := g.expr(x.X)
		if err != nil {
			return lvalue{}, err
		}
		return lvalue{base: base, t: x.X.Type().Elem}, nil
	case *Index:
		base, err := g.expr(x.X)
		if err != nil {
			return lvalue{}, err
		}
		idx, err := g.expr(x.Idx)
		if err != nil {
			return lvalue{}, err
		}
		elem := x.X.Type().Elem
		addr := g.scaleAdd(base, idx, elem.Size())
		return lvalue{base: addr, t: elem}, nil
	}
	return lvalue{}, fmt.Errorf("%s: not an lvalue", e.P())
}

// scaleAdd computes base + idx*size into a register operand.
func (g *gen) scaleAdd(base, idx rtl.Operand, size int64) rtl.Operand {
	if c, ok := idx.IsConst(); ok {
		if c == 0 {
			return base
		}
		r := g.f.NewReg()
		g.emit(rtl.BinI(rtl.Add, r, base, rtl.C(c*size)))
		return rtl.R(r)
	}
	scaled := idx
	if size != 1 {
		r := g.f.NewReg()
		if size&(size-1) == 0 {
			g.emit(rtl.BinI(rtl.Shl, r, idx, rtl.C(int64(bits.TrailingZeros64(uint64(size))))))
		} else {
			g.emit(rtl.BinI(rtl.Mul, r, idx, rtl.C(size)))
		}
		scaled = rtl.R(r)
	}
	r := g.f.NewReg()
	g.emit(rtl.BinI(rtl.Add, r, base, scaled))
	return rtl.R(r)
}

// loadLV reads the current value of an lvalue.
func (g *gen) loadLV(lv lvalue) rtl.Operand {
	if lv.sym != nil {
		return rtl.R(lv.sym.Reg)
	}
	r := g.f.NewReg()
	g.emit(rtl.LoadI(r, lv.base, lv.disp, rtl.Width(lv.t.Size()), !lv.t.Unsigned && lv.t.IsInt()))
	return rtl.R(r)
}

// storeLV writes a value (already canonical for lv.t where register
// resident) to an lvalue.
func (g *gen) storeLV(lv lvalue, v rtl.Operand) {
	if lv.sym != nil {
		g.emit(rtl.MovI(lv.sym.Reg, g.narrow(v, lv.t)))
		return
	}
	g.emit(rtl.StoreI(lv.base, lv.disp, v, rtl.Width(lv.t.Size())))
}

func (g *gen) expr(e Expr) (rtl.Operand, error) {
	switch x := e.(type) {
	case *IntLit:
		return rtl.C(x.Val), nil
	case *Ident:
		if x.GSym != nil {
			if x.GSym.Count > 0 {
				return rtl.C(x.GSym.Addr), nil // array decays to its address
			}
			lv := lvalue{base: rtl.C(x.GSym.Addr), t: x.GSym.Elem}
			return g.loadLV(lv), nil
		}
		return rtl.R(x.Sym.Reg), nil
	case *Cast:
		v, err := g.expr(x.X)
		if err != nil {
			return rtl.Operand{}, err
		}
		if x.To.Kind == KVoid {
			return rtl.C(0), nil
		}
		return g.truncate(v, x.To), nil
	case *Unary:
		return g.unary(x)
	case *Binary:
		return g.binary(x)
	case *Assign:
		return g.assign(x)
	case *IncDec:
		return g.incdec(x)
	case *Index:
		lv, err := g.lvalueOf(x)
		if err != nil {
			return rtl.Operand{}, err
		}
		return g.loadLV(lv), nil
	case *Call:
		var args []rtl.Operand
		for i, a := range x.Args {
			v, err := g.expr(a)
			if err != nil {
				return rtl.Operand{}, err
			}
			args = append(args, g.narrow(v, x.Decl.Params[i].Type))
		}
		dst := rtl.NoReg
		if x.Decl.Ret.Kind != KVoid {
			dst = g.f.NewReg()
		}
		g.emit(rtl.CallI(dst, x.Name, args...))
		if dst == rtl.NoReg {
			return rtl.C(0), nil
		}
		return rtl.R(dst), nil
	case *CondExpr:
		cond, err := g.expr(x.C)
		if err != nil {
			return rtl.Operand{}, err
		}
		r := g.f.NewReg()
		tB := g.f.NewBlock("")
		fB := g.f.NewBlock("")
		join := g.f.NewBlock("")
		g.emit(rtl.BranchI(cond, tB, fB))
		g.cur = tB
		tv, err := g.expr(x.T)
		if err != nil {
			return rtl.Operand{}, err
		}
		g.emit(rtl.MovI(r, tv))
		g.emit(rtl.JumpI(join))
		g.cur = fB
		fv, err := g.expr(x.F)
		if err != nil {
			return rtl.Operand{}, err
		}
		g.emit(rtl.MovI(r, fv))
		g.emit(rtl.JumpI(join))
		g.cur = join
		return rtl.R(r), nil
	}
	return rtl.Operand{}, fmt.Errorf("%s: unhandled expression %T", e.P(), e)
}

func (g *gen) unary(x *Unary) (rtl.Operand, error) {
	if x.Op == TokStar {
		lv, err := g.lvalueOf(x)
		if err != nil {
			return rtl.Operand{}, err
		}
		return g.loadLV(lv), nil
	}
	v, err := g.expr(x.X)
	if err != nil {
		return rtl.Operand{}, err
	}
	r := g.f.NewReg()
	switch x.Op {
	case TokMinus:
		g.emit(rtl.UnI(rtl.Neg, r, v))
	case TokTilde:
		g.emit(rtl.UnI(rtl.Not, r, v))
	case TokBang:
		g.emit(rtl.BinI(rtl.SetEQ, r, v, rtl.C(0)))
	default:
		return rtl.Operand{}, fmt.Errorf("%s: unhandled unary %s", x.P(), x.Op)
	}
	return rtl.R(r), nil
}

var binOps = map[TokKind]rtl.Op{
	TokPlus: rtl.Add, TokMinus: rtl.Sub, TokStar: rtl.Mul,
	TokSlash: rtl.Div, TokPercent: rtl.Rem,
	TokAmp: rtl.And, TokPipe: rtl.Or, TokCaret: rtl.Xor,
	TokShl: rtl.Shl, TokShr: rtl.Shr,
	TokEq: rtl.SetEQ, TokNe: rtl.SetNE,
	TokLt: rtl.SetLT, TokLe: rtl.SetLE, TokGt: rtl.SetGT, TokGe: rtl.SetGE,
}

func (g *gen) binary(x *Binary) (rtl.Operand, error) {
	switch x.Op {
	case TokAndAnd, TokOrOr:
		return g.shortCircuit(x)
	}
	xv, err := g.expr(x.X)
	if err != nil {
		return rtl.Operand{}, err
	}
	yv, err := g.expr(x.Y)
	if err != nil {
		return rtl.Operand{}, err
	}
	tx, ty := x.X.Type(), x.Y.Type()
	// Pointer arithmetic scales the integer side by the element size.
	if x.Op == TokPlus || x.Op == TokMinus {
		switch {
		case tx.IsPtr() && ty.IsInt():
			sz := tx.Elem.Size()
			if x.Op == TokMinus {
				scaled := g.scaleMul(yv, sz)
				r := g.f.NewReg()
				g.emit(rtl.BinI(rtl.Sub, r, xv, scaled))
				return rtl.R(r), nil
			}
			return g.scaleAdd(xv, yv, sz), nil
		case tx.IsInt() && ty.IsPtr(): // int + ptr
			return g.scaleAdd(yv, xv, ty.Elem.Size()), nil
		case tx.IsPtr() && ty.IsPtr(): // ptr - ptr
			diff := g.f.NewReg()
			g.emit(rtl.BinI(rtl.Sub, diff, xv, yv))
			sz := tx.Elem.Size()
			if sz == 1 {
				return rtl.R(diff), nil
			}
			r := g.f.NewReg()
			if sz&(sz-1) == 0 {
				g.emit(rtl.SBinI(rtl.Shr, r, rtl.R(diff), rtl.C(int64(bits.TrailingZeros64(uint64(sz))))))
			} else {
				g.emit(rtl.SBinI(rtl.Div, r, rtl.R(diff), rtl.C(sz)))
			}
			return rtl.R(r), nil
		}
	}
	op, ok := binOps[x.Op]
	if !ok {
		return rtl.Operand{}, fmt.Errorf("%s: unhandled binary %s", x.P(), x.Op)
	}
	signed := signedOp(tx, ty)
	r := g.f.NewReg()
	in := rtl.BinI(op, r, xv, yv)
	in.Signed = signed
	g.emit(in)
	return rtl.R(r), nil
}

// signedOp decides the signedness of division, shifts, and ordered
// comparisons: unsigned if either operand type is unsigned or a pointer.
func signedOp(tx, ty *Type) bool {
	if tx.IsPtr() || ty.IsPtr() {
		return false
	}
	return !(tx.Unsigned || ty.Unsigned)
}

func (g *gen) scaleMul(v rtl.Operand, size int64) rtl.Operand {
	if size == 1 {
		return v
	}
	if c, ok := v.IsConst(); ok {
		return rtl.C(c * size)
	}
	r := g.f.NewReg()
	if size&(size-1) == 0 {
		g.emit(rtl.BinI(rtl.Shl, r, v, rtl.C(int64(bits.TrailingZeros64(uint64(size))))))
	} else {
		g.emit(rtl.BinI(rtl.Mul, r, v, rtl.C(size)))
	}
	return rtl.R(r)
}

func (g *gen) shortCircuit(x *Binary) (rtl.Operand, error) {
	r := g.f.NewReg()
	xv, err := g.expr(x.X)
	if err != nil {
		return rtl.Operand{}, err
	}
	evalY := g.f.NewBlock("")
	done := g.f.NewBlock("")
	if x.Op == TokAndAnd {
		g.emit(rtl.MovI(r, rtl.C(0)))
		g.emit(rtl.BranchI(xv, evalY, done))
	} else {
		g.emit(rtl.MovI(r, rtl.C(1)))
		g.emit(rtl.BranchI(xv, done, evalY))
	}
	g.cur = evalY
	yv, err := g.expr(x.Y)
	if err != nil {
		return rtl.Operand{}, err
	}
	g.emit(rtl.BinI(rtl.SetNE, r, yv, rtl.C(0)))
	g.emit(rtl.JumpI(done))
	g.cur = done
	return rtl.R(r), nil
}

func (g *gen) assign(x *Assign) (rtl.Operand, error) {
	lv, err := g.lvalueOf(x.LHS)
	if err != nil {
		return rtl.Operand{}, err
	}
	if x.Op == TokAssign {
		v, err := g.expr(x.RHS)
		if err != nil {
			return rtl.Operand{}, err
		}
		g.storeLV(lv, v)
		return g.narrow(v, lv.t), nil
	}
	// Compound assignment: read-modify-write on the same location.
	old := g.loadLV(lv)
	rv, err := g.expr(x.RHS)
	if err != nil {
		return rtl.Operand{}, err
	}
	var result rtl.Operand
	if lv.t.IsPtr() {
		sz := lv.t.Elem.Size()
		scaled := g.scaleMul(rv, sz)
		r := g.f.NewReg()
		op := rtl.Add
		if x.Op == TokMinusAssign {
			op = rtl.Sub
		}
		g.emit(rtl.BinI(op, r, old, scaled))
		result = rtl.R(r)
	} else {
		var op rtl.Op
		switch x.Op {
		case TokPlusAssign:
			op = rtl.Add
		case TokMinusAssign:
			op = rtl.Sub
		case TokStarAssign:
			op = rtl.Mul
		case TokSlashAssign:
			op = rtl.Div
		case TokPercentAssign:
			op = rtl.Rem
		case TokAmpAssign:
			op = rtl.And
		case TokPipeAssign:
			op = rtl.Or
		case TokCaretAssign:
			op = rtl.Xor
		case TokShlAssign:
			op = rtl.Shl
		case TokShrAssign:
			op = rtl.Shr
		default:
			return rtl.Operand{}, fmt.Errorf("%s: unhandled compound assignment", x.P())
		}
		r := g.f.NewReg()
		in := rtl.BinI(op, r, old, rv)
		in.Signed = signedOp(lv.t, x.RHS.Type())
		g.emit(in)
		result = rtl.R(r)
	}
	g.storeLV(lv, result)
	return g.narrow(result, lv.t), nil
}

func (g *gen) incdec(x *IncDec) (rtl.Operand, error) {
	lv, err := g.lvalueOf(x.X)
	if err != nil {
		return rtl.Operand{}, err
	}
	old := g.loadLV(lv)
	var saved rtl.Operand
	if x.Post {
		r := g.f.NewReg()
		g.emit(rtl.MovI(r, old))
		saved = rtl.R(r)
	}
	delta := int64(1)
	if lv.t.IsPtr() {
		delta = lv.t.Elem.Size()
	}
	op := rtl.Add
	if x.Op == TokDec {
		op = rtl.Sub
	}
	r := g.f.NewReg()
	g.emit(rtl.BinI(op, r, old, rtl.C(delta)))
	g.storeLV(lv, rtl.R(r))
	if x.Post {
		return saved, nil
	}
	return g.narrow(rtl.R(r), lv.t), nil
}

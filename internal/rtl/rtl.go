// Package rtl defines the register-transfer-list intermediate representation
// used throughout the compiler. It is modelled on the machine-level RTLs of
// the vpo optimizer that hosts the memory access coalescing transformation in
// Davidson & Jinturkar (PLDI 1994): straight-line instructions over an
// unbounded set of 64-bit virtual registers, grouped into basic blocks whose
// last instruction is the only control transfer.
//
// Memory is byte addressable. Loads and stores carry an access width (1, 2,
// 4, or 8 bytes) and address memory as base register plus constant
// displacement, the addressing shape the coalescing analysis reasons about.
// Extract and Insert mirror the Alpha-style byte-manipulation instructions
// the paper relies on: they pull a narrow value out of, or deposit one into,
// a wide register without touching memory.
package rtl

import "fmt"

// Width is a memory access width in bytes.
type Width uint8

// Supported access widths.
const (
	W1 Width = 1
	W2 Width = 2
	W4 Width = 4
	W8 Width = 8
)

// Valid reports whether w is one of the supported access widths.
func (w Width) Valid() bool {
	switch w {
	case W1, W2, W4, W8:
		return true
	}
	return false
}

// Bits returns the width in bits.
func (w Width) Bits() int { return int(w) * 8 }

// Mask returns the bitmask covering a value of width w.
func (w Width) Mask() uint64 {
	if w == W8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * uint(w))) - 1
}

// Reg names a virtual register. Registers are 64 bits wide, matching the
// Alpha model in the paper; narrower machines are expressed through the
// machine cost model, not through the IR.
type Reg int32

// NoReg is the invalid register, used when an instruction defines nothing.
const NoReg Reg = -1

func (r Reg) String() string {
	if r == NoReg {
		return "r?"
	}
	return fmt.Sprintf("r%d", int32(r))
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	KindNone  OperandKind = iota // absent operand
	KindReg                      // virtual register
	KindConst                    // 64-bit immediate
)

// Operand is a register or immediate source operand.
type Operand struct {
	Kind  OperandKind
	Reg   Reg
	Const int64
}

// R builds a register operand.
func R(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// C builds a constant operand.
func C(v int64) Operand { return Operand{Kind: KindConst, Const: v} }

// IsReg reports whether o is a register operand, and if so which register.
func (o Operand) IsReg() (Reg, bool) {
	if o.Kind == KindReg {
		return o.Reg, true
	}
	return NoReg, false
}

// IsConst reports whether o is a constant operand, and if so its value.
func (o Operand) IsConst() (int64, bool) {
	if o.Kind == KindConst {
		return o.Const, true
	}
	return 0, false
}

func (o Operand) String() string {
	switch o.Kind {
	case KindReg:
		return o.Reg.String()
	case KindConst:
		return fmt.Sprintf("%d", o.Const)
	default:
		return "_"
	}
}

// Op is an RTL opcode.
type Op uint8

// Opcodes. Arithmetic is 64-bit two's complement; the Signed flag on the
// instruction selects signed versus unsigned behaviour for Div, Rem, Shr and
// the ordered comparisons.
const (
	Nop Op = iota

	Mov // dst = A

	Add // dst = A + B
	Sub // dst = A - B
	Mul // dst = A * B
	Div // dst = A / B   (Signed selects arithmetic)
	Rem // dst = A % B   (Signed selects arithmetic)
	Neg // dst = -A

	And // dst = A & B
	Or  // dst = A | B
	Xor // dst = A ^ B
	Not // dst = ^A
	Shl // dst = A << B
	Shr // dst = A >> B  (Signed: arithmetic shift)

	SetEQ // dst = A == B ? 1 : 0
	SetNE // dst = A != B ? 1 : 0
	SetLT // dst = A <  B ? 1 : 0 (Signed selects ordering)
	SetLE // dst = A <= B ? 1 : 0 (Signed selects ordering)
	SetGT // dst = A >  B ? 1 : 0 (Signed selects ordering)
	SetGE // dst = A >= B ? 1 : 0 (Signed selects ordering)

	Load  // dst = M[Width](A + Disp); Signed selects sign extension
	Store // M[Width](A + Disp) = B

	// Extract reads the Width bytes of register A that begin at byte offset
	// B (mod 8) and places them, sign- or zero-extended per Signed, in dst.
	// It is the IR image of the Alpha EXTxx instructions.
	Extract
	// Insert deposits the low Width bytes of B into register A at byte
	// offset C (mod 8), leaving the other bytes of A intact, and places the
	// result in dst. It is the IR image of INSxx/MSKxx sequences.
	Insert

	Jump   // goto Target
	Branch // if A != 0 goto Target else goto Else
	Ret    // return A (A may be absent)
	Call   // dst = Callee(Args...)

	numOps // sentinel
)

var opNames = [numOps]string{
	Nop: "nop", Mov: "mov",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem", Neg: "neg",
	And: "and", Or: "or", Xor: "xor", Not: "not", Shl: "shl", Shr: "shr",
	SetEQ: "seteq", SetNE: "setne", SetLT: "setlt", SetLE: "setle",
	SetGT: "setgt", SetGE: "setge",
	Load: "load", Store: "store", Extract: "extract", Insert: "insert",
	Jump: "jump", Branch: "branch", Ret: "ret", Call: "call",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool {
	switch op {
	case Jump, Branch, Ret:
		return true
	}
	return false
}

// IsCompare reports whether op is one of the Set* comparisons.
func (op Op) IsCompare() bool { return op >= SetEQ && op <= SetGE }

// IsBinary reports whether op takes two source operands A and B and defines
// dst (arithmetic, logic, and comparisons).
func (op Op) IsBinary() bool {
	return (op >= Add && op <= Shr && op != Neg && op != Not) || op.IsCompare()
}

// Instr is a single RTL instruction. Which fields are meaningful depends on
// Op; the Verify pass enforces the shape.
type Instr struct {
	Op     Op
	Dst    Reg     // destination register, NoReg if none
	A, B   Operand // source operands
	C      Operand // third source (Insert only)
	Width  Width   // memory/extract/insert access width
	Signed bool    // signedness for Div/Rem/Shr/Set*/Load/Extract
	Disp   int64   // address displacement for Load/Store

	Target *Block // Jump/Branch taken target
	Else   *Block // Branch fall-through target

	Callee string    // Call only
	Args   []Operand // Call only
}

// Block is a basic block: zero or more straight-line instructions followed
// by exactly one terminator.
type Block struct {
	ID     int
	Name   string
	Instrs []*Instr
}

// Term returns the block's terminator instruction, or nil if the block is
// empty or malformed.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the block's successor blocks in (taken, fallthrough) order.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	switch t.Op {
	case Jump:
		return []*Block{t.Target}
	case Branch:
		return []*Block{t.Target, t.Else}
	}
	return nil
}

func (b *Block) String() string {
	if b == nil {
		return "b?"
	}
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("b%d", b.ID)
}

// Fn is a function: an entry block (Blocks[0]), parameters pre-assigned to
// registers, and a pool of virtual registers.
type Fn struct {
	Name   string
	Params []Reg
	Blocks []*Block
	// FrameBytes, when non-zero, asks the execution environment to reserve
	// a stack frame of that many bytes and to place its base address in
	// FrameReg before the function runs. The register allocator uses the
	// frame for spill slots.
	FrameBytes int
	FrameReg   Reg
	nextReg    Reg
	nextBlk    int
}

// NewFn creates a function with nparams parameters bound to registers
// 0..nparams-1 and a fresh entry block.
func NewFn(name string, nparams int) *Fn {
	f := &Fn{Name: name}
	for i := 0; i < nparams; i++ {
		f.Params = append(f.Params, f.NewReg())
	}
	f.NewBlock("entry")
	return f
}

// Entry returns the function's entry block.
func (f *Fn) Entry() *Block { return f.Blocks[0] }

// NewReg allocates a fresh virtual register.
func (f *Fn) NewReg() Reg {
	r := f.nextReg
	f.nextReg++
	return r
}

// EnsureRegs bumps the register pool so ids below n are considered
// allocated. The parser uses it after reading explicit register ids.
func (f *Fn) EnsureRegs(n int) {
	if Reg(n) > f.nextReg {
		f.nextReg = Reg(n)
	}
}

// NewBlock appends a fresh block with the given name (a unique name is
// generated when empty).
func (f *Fn) NewBlock(name string) *Block {
	b := &Block{ID: f.nextBlk}
	f.nextBlk++
	if name == "" {
		name = fmt.Sprintf("b%d", b.ID)
	}
	b.Name = name
	f.Blocks = append(f.Blocks, b)
	return b
}

// Global is a statically allocated data object. The front end lays globals
// out at fixed addresses; the simulator materializes Init (zero-padded to
// Size) at Addr before execution.
type Global struct {
	Name string
	Addr int64
	Size int64
	Init []byte
}

// Program is a set of functions, keyed by name for the Call instruction and
// the simulator, plus statically allocated globals.
type Program struct {
	Fns     []*Fn
	Globals []*Global
	byName  map[string]*Fn
}

// NewProgram builds a program from functions.
func NewProgram(fns ...*Fn) *Program {
	p := &Program{byName: make(map[string]*Fn)}
	for _, f := range fns {
		p.Add(f)
	}
	return p
}

// Add registers a function with the program, replacing any previous function
// of the same name.
func (p *Program) Add(f *Fn) {
	if old, ok := p.byName[f.Name]; ok {
		for i, x := range p.Fns {
			if x == old {
				p.Fns[i] = f
				p.byName[f.Name] = f
				return
			}
		}
	}
	p.Fns = append(p.Fns, f)
	p.byName[f.Name] = f
}

// Lookup returns the function with the given name, if present.
func (p *Program) Lookup(name string) (*Fn, bool) {
	f, ok := p.byName[name]
	return f, ok
}

// Predecoded execution core. Decoding happens once per Sim: each function
// of the flat image is compiled into a dense []dInstr array with resolved
// block indices, operand slots, precomputed Exec-table costs, and
// precomputed instruction-cache geometry, so executing an instruction needs
// no lookup and no allocation. The decoded image is retained across Reset()
// and every subsequent Run, so repeated measurements pay the decode exactly
// once. The decoded image lives in the Sim's pooled storage (storage.go), so
// a predecode after a Release refills slabs it has already allocated.
package sim

import (
	"fmt"

	"macc/internal/rtl"
)

// opBadBlock is the sentinel appended after a block that does not end in a
// terminator: executing past the block's last instruction traps, without
// consuming fuel or statistics.
const opBadBlock rtl.Op = 0xFF

// Operand slot register sentinels.
const (
	constSrc  int32 = -1 // slot holds a constant, read val
	absentSrc int32 = -2 // operand not present (Ret with no value)
)

// dOp is a decoded operand slot: a register index, or a constant when
// reg == constSrc.
type dOp struct {
	reg int32
	val int64
}

// dInstr is one predecoded instruction. Everything the hot loop needs is
// resolved: costs from the machine's Exec table, icache line and set for the
// static address, register source slots for readiness tracking, and branch
// targets as block indices. It holds no pointers — a call's callee and
// arguments live in the image's call table — so the code array is memory
// the garbage collector never scans.
type dInstr struct {
	op      rtl.Op
	width   rtl.Width
	signed  bool
	nsrc    uint8    // live entries in srcs
	dst     int32    // destination register, -1 when none
	srcs    [3]int32 // register sources (readiness); Call reads args instead
	a, b, c dOp
	disp    int64
	lat     int64 // Exec latency
	occ     int64 // Exec occupancy (pipelined machines)
	iline   int64 // icache line of the static address
	iset    int32 // icache set of that line
	target  int32 // taken-branch block index
	els     int32 // fall-through block index
	call    int32 // Call: index into image.calls
}

// dCall is one decoded call site.
type dCall struct {
	callee *dFn // nil traps at execution
	name   string
	args   []dOp
}

// dBlock ties a decoded block to its code range, plus the name and length
// the profiler reports. The decoded image carries everything the profiler
// needs, so profiling needs no pointer back to the source program.
type dBlock struct {
	name   string
	start  int32 // index of the block's first instruction in dFn.code
	ninstr int32 // source instructions in the block (sentinels excluded)
}

// dFn is one predecoded function.
type dFn struct {
	name       string
	params     []int32
	nregs      int
	frameBytes int64
	frameReg   int32
	code       []dInstr
	blocks     []dBlock // real blocks followed by one phantom entry
	execs      []int64  // per-block execution counts; nil unless profiling
}

// image is a fully decoded program.
type image struct {
	fns    []*dFn
	byName map[string]*dFn
	calls  []dCall // every call site, in code order
}

func decodeOperand(o rtl.Operand) dOp {
	switch o.Kind {
	case rtl.KindReg:
		return dOp{reg: int32(o.Reg)}
	case rtl.KindConst:
		return dOp{reg: constSrc, val: o.Const}
	default:
		return dOp{reg: absentSrc}
	}
}

// decodeFlat compiles a flat program image against the machine model.
// Static instruction addresses are assigned function by function, block by
// block, instruction by instruction (sentinels get no address), which fixes
// the instruction-cache geometry. Each function's block table ends with a
// phantom entry whose code is one sentinel; Flatten rejects edges that leave
// the function, so no flat edge reaches it.
//
// The image is carved from one slab per kind, held in the Sim's storage: a
// first pass sizes the code, block, parameter and argument arrays of every
// function, and the second fills them in place. A slab is resliced when the
// storage's is large enough and replaced when not, so decoding allocates at
// most one object per kind whatever the program's size, and nothing once a
// recycled storage has seen a program as large. The fill writes every
// element it hands out, so nothing of an earlier program shows through.
func (s *Sim) decodeFlat(fp *rtl.FlatProgram) {
	var ncode, nblocks, nparams, ncalls, nargs int
	for i := range fp.Fns {
		f := &fp.Fns[i]
		nparams += len(f.Params)
		nblocks += len(f.Blocks) + 1
		ncode += len(f.Blocks) + 1 // one sentinel per block, one phantom
		for bi := range f.Blocks {
			fb := &f.Blocks[bi]
			ncode += int(fb.InstrEnd - fb.InstrStart)
			for _, ci := range f.CallIdx[fb.InstrStart:fb.InstrEnd] {
				if ci >= 0 {
					ncalls++
					nargs += int(f.Calls[ci].ArgEnd - f.Calls[ci].ArgStart)
				}
			}
		}
	}
	st := s.st
	st.fns = sized(st.fns, len(fp.Fns))
	st.code = sized(st.code, ncode)
	st.blocks = sized(st.blocks, nblocks)
	st.params = sized(st.params, nparams)
	st.args = sized(st.args, nargs)
	fns, code, blocks, params, args := st.fns, st.code, st.blocks, st.params, st.args

	img := &st.img
	img.fns = sized(img.fns, len(fp.Fns))
	img.calls = sized(img.calls, ncalls)[:0]
	if img.byName == nil {
		img.byName = make(map[string]*dFn, len(fp.Fns))
	}
	for i := range fp.Fns {
		f := &fp.Fns[i]
		df := &fns[i]
		*df = dFn{
			name:       fp.SymName(f.Name),
			nregs:      int(f.NextReg),
			frameBytes: f.FrameBytes,
			frameReg:   int32(f.FrameReg),
		}
		df.params = carve(&params, len(f.Params))
		for pi, p := range f.Params {
			df.params[pi] = int32(p)
		}
		img.fns[i] = df
		img.byName[df.name] = df
	}
	costs := &s.mach.Exec
	nsets := int64(len(s.icache))
	addr := int64(0)
	for fi := range fp.Fns {
		f := &fp.Fns[fi]
		df := img.fns[fi]
		n := len(f.Blocks) + 1
		for bi := range f.Blocks {
			fb := &f.Blocks[bi]
			n += int(fb.InstrEnd - fb.InstrStart)
		}
		df.code = carve(&code, n)
		df.blocks = carve(&blocks, len(f.Blocks)+1)
		pc := int32(0)
		for bi := range f.Blocks {
			fb := &f.Blocks[bi]
			df.blocks[bi] = dBlock{
				name:   fp.SymName(fb.Name),
				start:  pc,
				ninstr: fb.InstrEnd - fb.InstrStart,
			}
			for i := fb.InstrStart; i < fb.InstrEnd; i++ {
				line := addr / icacheLineBytes
				d := &df.code[pc]
				pc++
				*d = dInstr{
					op:     f.Op[i],
					width:  f.Width[i],
					signed: f.Signed[i],
					dst:    int32(f.Dst[i]),
					a:      decodeOperand(f.A[i]),
					b:      decodeOperand(f.B[i]),
					c:      decodeOperand(f.C[i]),
					disp:   f.Disp[i],
					lat:    int64(costs.Of(f.Op[i], f.Width[i])),
					occ:    int64(costs.OccOf(f.Op[i], f.Width[i])),
					iline:  line,
					iset:   int32(line % nsets),
				}
				addr += int64(s.mach.BytesPerInstr)
				if d.op != rtl.Call {
					var buf [3]rtl.Reg // A, B and C at most
					for _, r := range f.SrcRegs(i, buf[:0]) {
						d.srcs[d.nsrc] = int32(r)
						d.nsrc++
					}
				}
				if t := f.Target[i]; t >= 0 {
					d.target = t
				}
				if e := f.Else[i]; e >= 0 {
					d.els = e
				}
				if ci := f.CallIdx[i]; ci >= 0 {
					c := &f.Calls[ci]
					dc := dCall{name: fp.SymName(c.Callee)}
					dc.callee = img.byName[dc.name]
					dc.args = carve(&args, int(c.ArgEnd-c.ArgStart))
					for ai, a := range f.Args[c.ArgStart:c.ArgEnd] {
						dc.args[ai] = decodeOperand(a)
					}
					d.call = int32(len(img.calls))
					img.calls = append(img.calls, dc)
				}
			}
			df.code[pc] = dInstr{op: opBadBlock}
			pc++
		}
		df.blocks[len(f.Blocks)] = dBlock{start: pc}
		df.code[pc] = dInstr{op: opBadBlock}
	}
}

// carve hands out the next n elements of *slab, capacity-limited so no
// slice carved from it can grow into its neighbour's.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// exec is the hot loop: it interprets one decoded function (issue when
// operands are ready, occupancy vs latency on pipelined machines, cache
// stalls added to both clock and result-ready time for loads).
func (s *Sim) exec(df *dFn, args []int64, depth int) (ret int64, cycles int64, err error) {
	if depth > maxCallDepth {
		return 0, 0, &Trap{Kind: TrapBadProgram, Fn: df.name, Msg: "call depth exceeded"}
	}
	if len(args) != len(df.params) {
		return 0, 0, &Trap{Kind: TrapBadProgram, Fn: df.name,
			Msg: fmt.Sprintf("expected %d arguments, got %d", len(df.params), len(args))}
	}
	fr := s.frames.get(df.nregs)
	defer s.frames.put(fr)
	regs, ready := fr.regs, fr.ready
	for i, p := range df.params {
		regs[p] = args[i]
	}
	if df.frameBytes > 0 {
		s.stackTop -= df.frameBytes
		if s.stackTop < 0 {
			return 0, 0, &Trap{Kind: TrapOutOfBounds, Fn: df.name, Addr: s.stackTop,
				Msg: "stack overflow"}
		}
		regs[df.frameReg] = s.stackTop
		defer func() { s.stackTop += df.frameBytes }()
	}
	val := func(o dOp) int64 {
		if o.reg >= 0 {
			return regs[o.reg]
		}
		return o.val
	}
	pipelined := s.mach.Pipelined
	icache := s.icache
	ipenalty := int64(s.mach.ICacheMissPenalty)
	clock := int64(0)
	code := df.code
	pc := df.blocks[0].start
	if s.profiling {
		df.execs[0]++
	}
	for {
		d := &code[pc]
		if d.op == opBadBlock {
			return 0, clock, &Trap{Kind: TrapBadProgram, Fn: df.name, Msg: "block without terminator"}
		}
		if s.fuel--; s.fuel < 0 {
			return 0, clock, &Trap{Kind: TrapFuel, Fn: df.name}
		}
		s.stats.Instrs++
		if icache[d.iset] != d.iline {
			icache[d.iset] = d.iline
			s.stats.ICacheMisses++
			clock += ipenalty
		}

		// Issue when the operands are ready.
		issue := clock
		if d.op == rtl.Call {
			args := s.st.img.calls[d.call].args
			for i := range args {
				if r := args[i].reg; r >= 0 && ready[r] > issue {
					issue = ready[r]
				}
			}
		} else {
			for k := uint8(0); k < d.nsrc; k++ {
				if r := d.srcs[k]; ready[r] > issue {
					issue = ready[r]
				}
			}
		}
		if pipelined {
			clock = issue + d.occ
		} else {
			clock = issue + d.lat
		}
		done := issue + d.lat

		switch d.op {
		case rtl.Nop:
		case rtl.Mov:
			regs[d.dst] = val(d.a)
			ready[d.dst] = done
		case rtl.Neg:
			regs[d.dst] = -val(d.a)
			ready[d.dst] = done
		case rtl.Not:
			regs[d.dst] = ^val(d.a)
			ready[d.dst] = done
		case rtl.Load:
			addr := val(d.a) + d.disp
			v, trap := s.load(df.name, addr, d.width, d.signed)
			if trap != nil {
				return 0, clock, trap
			}
			s.stats.Loads++
			s.loadsW[d.width]++
			if stall := s.dcacheAccess(addr, d.width); stall > 0 {
				clock += stall
				done += stall
			}
			regs[d.dst] = v
			ready[d.dst] = done
		case rtl.Store:
			addr := val(d.a) + d.disp
			if trap := s.store(df.name, addr, d.width, val(d.b)); trap != nil {
				return 0, clock, trap
			}
			s.stats.Stores++
			s.storesW[d.width]++
			if stall := s.dcacheAccess(addr, d.width); stall > 0 {
				clock += stall
			}
		case rtl.Extract:
			regs[d.dst] = rtl.EvalExtract(val(d.a), val(d.b), d.width, d.signed)
			ready[d.dst] = done
		case rtl.Insert:
			regs[d.dst] = rtl.EvalInsert(val(d.a), val(d.b), val(d.c), d.width)
			ready[d.dst] = done
		case rtl.Jump:
			s.stats.Branches++
			pc = df.blocks[d.target].start
			if s.profiling {
				df.execs[d.target]++
			}
			continue
		case rtl.Branch:
			s.stats.Branches++
			bi := d.els
			if val(d.a) != 0 {
				bi = d.target
			}
			pc = df.blocks[bi].start
			if s.profiling {
				df.execs[bi]++
			}
			continue
		case rtl.Ret:
			s.stats.Cycles += clock
			if d.a.reg == absentSrc {
				return 0, clock, nil
			}
			return val(d.a), clock, nil
		case rtl.Call:
			c := &s.st.img.calls[d.call]
			if c.callee == nil {
				return 0, clock, &Trap{Kind: TrapBadProgram, Fn: df.name,
					Msg: "call to undefined function " + c.name}
			}
			var cargs []int64
			for i := range c.args {
				cargs = append(cargs, val(c.args[i]))
			}
			rv, sub, cerr := s.exec(c.callee, cargs, depth+1)
			if cerr != nil {
				return 0, clock, cerr
			}
			// The callee added its own cycles to stats.Cycles at Ret; account
			// for them inline in the caller's clock instead.
			s.stats.Cycles -= sub
			clock = done + sub
			if d.dst >= 0 {
				regs[d.dst] = rv
				ready[d.dst] = clock
			}
		default:
			if d.op.IsBinary() {
				v, ok := rtl.EvalBinary(d.op, val(d.a), val(d.b), d.signed)
				if !ok {
					return 0, clock, &Trap{Kind: TrapDivideByZero, Fn: df.name}
				}
				regs[d.dst] = v
				ready[d.dst] = done
			} else {
				return 0, clock, &Trap{Kind: TrapBadProgram, Fn: df.name,
					Msg: "unknown opcode " + d.op.String()}
			}
		}
		pc++
	}
}

// frameCache recycles register/ready frames across calls and Runs, so a
// measurement loop does not reallocate two slices per simulated call.
type frameCache struct {
	free []*frame
}

type frame struct {
	regs  []int64
	ready []int64
}

func (c *frameCache) get(nregs int) *frame {
	if n := len(c.free); n > 0 {
		fr := c.free[n-1]
		c.free = c.free[:n-1]
		if cap(fr.regs) >= nregs {
			fr.regs = fr.regs[:nregs]
			fr.ready = fr.ready[:nregs]
			clear(fr.regs)
			clear(fr.ready)
			return fr
		}
	}
	return &frame{regs: make([]int64, nregs), ready: make([]int64, nregs)}
}

func (c *frameCache) put(fr *frame) { c.free = append(c.free, fr) }

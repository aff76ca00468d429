package sched

import (
	"macc/internal/machine"
	"macc/internal/rtl"
)

// Entry points for the list scheduler over the flat form. A block body is
// decoded into a reusable scratch slab of rtl.Instr values and fed through
// buildDAG/order/makespan; the permutation is then scattered back into the
// dense arrays. Decode+scatter is linear and allocation-free once the
// scratch is warm.

// FlatScratch holds reusable decode buffers for flat scheduling calls.
type FlatScratch struct {
	instrs []rtl.Instr
	views  []*rtl.Instr
	fis    []rtl.FlatInstr
}

// decodeBody materializes block bi's body (terminator excluded) into the
// scratch and returns the instruction views plus the terminator index (-1
// when the block has none). Call argument slices alias the flat arrays —
// the DAG only reads them.
func (sc *FlatScratch) decodeBody(f *rtl.FlatFn, bi int32) ([]*rtl.Instr, int32) {
	b := &f.Blocks[bi]
	end := b.InstrEnd
	ti := int32(-1)
	if end > b.InstrStart && f.Op[end-1].IsTerminator() {
		ti = end - 1
		end--
	}
	n := int(end - b.InstrStart)
	if cap(sc.instrs) < n {
		sc.instrs = make([]rtl.Instr, n)
		sc.views = make([]*rtl.Instr, n)
	}
	sc.instrs = sc.instrs[:n]
	sc.views = sc.views[:n]
	for j := 0; j < n; j++ {
		i := b.InstrStart + int32(j)
		in := &sc.instrs[j]
		*in = rtl.Instr{
			Op: f.Op[i], Dst: f.Dst[i], A: f.A[i], B: f.B[i], C: f.C[i],
			Width: f.Width[i], Signed: f.Signed[i], Disp: f.Disp[i],
		}
		if ci := f.CallIdx[i]; ci >= 0 {
			c := &f.Calls[ci]
			in.Args = f.Args[c.ArgStart:c.ArgEnd]
		}
		sc.views[j] = in
	}
	return sc.views, ti
}

// EstimateFlat returns the scheduled cycle count of block bi's body without
// modifying it.
func EstimateFlat(f *rtl.FlatFn, bi int32, m *machine.Machine, sc *FlatScratch) int {
	body, ti := sc.decodeBody(f, bi)
	nodes := buildDAG(body, &m.Sched)
	ord := order(nodes)
	cycles := makespan(nodes, ord, &m.Sched, m.Pipelined)
	if ti >= 0 {
		var term rtl.Instr
		term.Op = f.Op[ti]
		cycles += m.Sched.Of(&term)
	}
	return cycles
}

// ScheduleFlat reorders block bi's body in place in the dense arrays
// according to the list schedule and returns the estimated cycle count.
func ScheduleFlat(f *rtl.FlatFn, bi int32, m *machine.Machine, sc *FlatScratch) int {
	body, ti := sc.decodeBody(f, bi)
	nodes := buildDAG(body, &m.Sched)
	ord := order(nodes)
	cycles := makespan(nodes, ord, &m.Sched, m.Pipelined)
	b := &f.Blocks[bi]
	n := len(body)
	if cap(sc.fis) < n {
		sc.fis = make([]rtl.FlatInstr, n)
	}
	sc.fis = sc.fis[:n]
	for j := 0; j < n; j++ {
		sc.fis[j] = f.Instr(b.InstrStart + int32(j))
	}
	for pos, j := range ord {
		f.SetInstr(b.InstrStart+int32(pos), sc.fis[j])
	}
	if ti >= 0 {
		var term rtl.Instr
		term.Op = f.Op[ti]
		cycles += m.Sched.Of(&term)
	}
	return cycles
}

// ScheduleFlatFn schedules every block of flat function fi.
func ScheduleFlatFn(fp *rtl.FlatProgram, fi int, m *machine.Machine) {
	f := &fp.Fns[fi]
	var sc FlatScratch
	for bi := range f.Blocks {
		ScheduleFlat(f, int32(bi), m, &sc)
	}
}

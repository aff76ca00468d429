// Package sched implements the dependence-DAG list scheduler vpo applies to
// basic blocks. The coalescer's profitability analysis (Figure 3 of the
// paper) calls EstimateFlat on the original loop body and on the coalesced
// copy and keeps whichever needs fewer cycles, so the scheduler's cost
// model is the machine's Sched table — what the compiler believes, which on
// the 68030 deliberately diverges from what the simulator delivers.
//
// The DAG is built straight from the flat form's dense arrays into a
// scratch drawn from a pool, so scheduling a block allocates nothing once
// the pool holds a scratch large enough for it.
package sched

import (
	"sync"

	"macc/internal/machine"
	"macc/internal/reuse"
	"macc/internal/rtl"
)

// pred is one dependence edge into a node.
type pred struct {
	idx int32 // the producer's position in the block body
	lat int   // cycles that must elapse between issue of pred and this
}

// scratch holds one block body's dependence DAG, as tables indexed by body
// position, and every buffer that builds, orders and times it.
type scratch struct {
	lat      []int // latency of each node under the cost table
	priority []int // longest latency path to any sink
	indeg    []int32

	// Node j's predecessors are preds[predStart[j]:predStart[j+1]] and its
	// successors succs[succStart[j]:succStart[j+1]]. Every edge runs from
	// an earlier node to a later one.
	predStart []int32
	preds     []pred
	succStart []int32
	succs     []int32

	// Register tables, indexed by register: lastDef[r] is the node that
	// last defined r (-1 none) and lastUses[r] the nodes that read r since.
	// touched lists every register with an entry set, so the reset after
	// each block visits only those.
	lastDef  []int32
	lastUses [][]int32
	touched  []rtl.Reg
	regs     []rtl.Reg // the current node's register sources
	memOps   []int32

	ready   []int32
	ord     []int32 // the list schedule, as node indices
	issueAt []int
	fis     []rtl.FlatInstr
}

// scratchPool recycles scratches between calls. A scratch holds no
// reference to any function once a call returns. Only a call that returns
// puts its scratch back: one abandoned by a panic may hold half-reset
// register tables, so it is left to the collector.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// EstimateFlat returns the scheduled cycle count of block bi's body without
// modifying it.
func EstimateFlat(f *rtl.FlatFn, bi int32, m *machine.Machine) int {
	sc := scratchPool.Get().(*scratch)
	cycles := sc.schedule(f, bi, m)
	scratchPool.Put(sc)
	return cycles
}

// ScheduleFlat reorders block bi's body in place in the dense arrays
// according to the list schedule and returns the estimated cycle count.
func ScheduleFlat(f *rtl.FlatFn, bi int32, m *machine.Machine) int {
	sc := scratchPool.Get().(*scratch)
	cycles := sc.schedule(f, bi, m)
	start := f.Blocks[bi].InstrStart
	sc.fis = sc.fis[:0]
	for j := range sc.ord {
		sc.fis = append(sc.fis, f.Instr(start+int32(j)))
	}
	for pos, j := range sc.ord {
		f.SetInstr(start+int32(pos), sc.fis[j])
	}
	scratchPool.Put(sc)
	return cycles
}

// ScheduleFlatFn schedules every block of flat function fi.
func ScheduleFlatFn(fp *rtl.FlatProgram, fi int, m *machine.Machine) {
	f := &fp.Fns[fi]
	for bi := range f.Blocks {
		ScheduleFlat(f, int32(bi), m)
	}
}

// schedule list-schedules block bi's body (terminator excluded) into sc.ord
// and returns its cycle count, the terminator's cost included.
func (sc *scratch) schedule(f *rtl.FlatFn, bi int32, m *machine.Machine) int {
	b := &f.Blocks[bi]
	end := b.InstrEnd
	hasTerm := end > b.InstrStart && f.Op[end-1].IsTerminator()
	if hasTerm {
		end--
	}
	sc.build(f, b.InstrStart, end, &m.Sched)
	sc.order()
	cycles := sc.makespan(f, b.InstrStart, &m.Sched, m.Pipelined)
	if hasTerm {
		cycles += m.Sched.Of(f.Op[end], 0)
	}
	return cycles
}

// build constructs the dependence DAG over instructions [start, end):
// register RAW/WAR/WAW, memory ordering with base+displacement
// disambiguation, and call barriers; then each node's priority.
func (sc *scratch) build(f *rtl.FlatFn, start, end int32, costs *machine.Costs) {
	n := int(end - start)
	sc.lat = reuse.Zeroed(sc.lat, n)
	sc.predStart = reuse.Zeroed(sc.predStart, n+1)
	sc.preds = sc.preds[:0]
	sc.memOps = sc.memOps[:0]
	for len(sc.lastDef) < f.NumRegs() {
		sc.lastDef = append(sc.lastDef, -1)
		sc.lastUses = append(sc.lastUses, nil)
	}
	edge := func(from int32, lat int) { // an edge into the current node
		sc.preds = append(sc.preds, pred{idx: from, lat: lat})
	}
	lastBarrier := int32(-1)
	for j := int32(0); j < int32(n); j++ {
		i := start + j
		op := f.Op[i]
		sc.predStart[j] = int32(len(sc.preds))
		sc.lat[j] = costs.Of(op, f.Width[i])

		// Register RAW edges.
		sc.regs = f.SrcRegs(i, sc.regs[:0])
		for _, r := range sc.regs {
			if di := sc.lastDef[r]; di >= 0 {
				edge(di, sc.lat[di])
			}
		}
		// Register WAR and WAW edges.
		d, hasDef := f.Def(i)
		if hasDef {
			for _, ui := range sc.lastUses[d] {
				edge(ui, 0)
			}
			if di := sc.lastDef[d]; di >= 0 {
				edge(di, 0)
			}
		}
		// Memory ordering.
		if op == rtl.Call {
			for _, mi := range sc.memOps {
				edge(mi, 0)
			}
			if lastBarrier >= 0 {
				edge(lastBarrier, 0)
			}
			lastBarrier = j
		}
		if f.IsMem(i) {
			if lastBarrier >= 0 {
				edge(lastBarrier, 0)
			}
			for _, mi := range sc.memOps {
				pi := start + mi
				if f.Op[pi] == rtl.Load && op == rtl.Load {
					continue // loads commute
				}
				// A store is involved: keep order unless provably disjoint.
				if br, ok := f.A[i].IsReg(); ok {
					if pbr, ok2 := f.A[pi].IsReg(); ok2 && br == pbr && defsBetween(f, br, pi, i) {
						edge(mi, 0) // base changed: cannot disambiguate
						continue
					}
				}
				if mayOverlap(f, pi, i) {
					lat := 0
					if f.Op[pi] == rtl.Store && op == rtl.Load {
						lat = sc.lat[mi] // store-to-load forwarding delay
					}
					edge(mi, lat)
				}
			}
			sc.memOps = append(sc.memOps, j)
		}

		// Update tables.
		for _, r := range sc.regs {
			sc.touch(r)
			sc.lastUses[r] = append(sc.lastUses[r], j)
		}
		if hasDef {
			sc.touch(d)
			sc.lastDef[d] = j
			sc.lastUses[d] = sc.lastUses[d][:0]
		}
	}
	sc.predStart[n] = int32(len(sc.preds))
	for _, r := range sc.touched {
		sc.lastDef[r] = -1
		sc.lastUses[r] = sc.lastUses[r][:0]
	}
	sc.touched = sc.touched[:0]

	// Successors: the predecessor lists inverted, bucketed by producer.
	// succStart[p+1] first counts p's edges; the prefix sum turns the
	// counts into range starts.
	sc.succStart = reuse.Zeroed(sc.succStart, n+1)
	sc.succs = reuse.Zeroed(sc.succs, len(sc.preds))
	for _, p := range sc.preds {
		sc.succStart[p.idx+1]++
	}
	for j := 1; j <= n; j++ {
		sc.succStart[j] += sc.succStart[j-1]
	}
	sc.indeg = reuse.Zeroed(sc.indeg, n)
	cursor := sc.indeg // borrowed as per-producer fill offsets
	for j := int32(0); j < int32(n); j++ {
		for _, p := range sc.preds[sc.predStart[j]:sc.predStart[j+1]] {
			sc.succs[sc.succStart[p.idx]+cursor[p.idx]] = j
			cursor[p.idx]++
		}
	}

	// Priorities: longest path (by latency) to a sink, computed backwards.
	sc.priority = reuse.Zeroed(sc.priority, n)
	for j := n - 1; j >= 0; j-- {
		sc.priority[j] = sc.lat[j]
		for _, s := range sc.succs[sc.succStart[j]:sc.succStart[j+1]] {
			// Edge latency is stored on the successor's pred entry; use the
			// conservative producer latency for the path metric.
			if p := sc.priority[s] + sc.lat[j]; p > sc.priority[j] {
				sc.priority[j] = p
			}
		}
	}
}

// touch records that register r is about to get a table entry.
func (sc *scratch) touch(r rtl.Reg) {
	if sc.lastDef[r] < 0 && len(sc.lastUses[r]) == 0 {
		sc.touched = append(sc.touched, r)
	}
}

// defsBetween reports whether an instruction in (i, j] redefines r.
func defsBetween(f *rtl.FlatFn, r rtl.Reg, i, j int32) bool {
	for k := i + 1; k <= j; k++ {
		if d, ok := f.Def(k); ok && d == r {
			return true
		}
	}
	return false
}

// mayOverlap reports whether memory references a and b may touch a common
// byte: only references off the same base register are told apart.
func mayOverlap(f *rtl.FlatFn, a, b int32) bool {
	ra, okA := f.A[a].IsReg()
	rb, okB := f.A[b].IsReg()
	if !okA || !okB || ra != rb {
		return true // different or unknown bases: assume aliasing
	}
	aLo, aHi := f.Disp[a], f.Disp[a]+int64(f.Width[a])
	bLo, bHi := f.Disp[b], f.Disp[b]+int64(f.Width[b])
	return aLo < bHi && bLo < aHi
}

// order produces a list schedule into sc.ord: repeatedly issue the ready
// node with the longest critical path, tie-broken by original position
// (stability). That is a strict total order, so a linear scan for the best
// ready node picks the same node any sort would put first.
func (sc *scratch) order() {
	n := len(sc.lat)
	for j := 0; j < n; j++ {
		sc.indeg[j] = sc.predStart[j+1] - sc.predStart[j]
	}
	ready := sc.ready[:0]
	for j := int32(0); j < int32(n); j++ {
		if sc.indeg[j] == 0 {
			ready = append(ready, j)
		}
	}
	sc.ord = sc.ord[:0]
	for len(ready) > 0 {
		best := 0
		for k := 1; k < len(ready); k++ {
			a, b := ready[k], ready[best]
			if sc.priority[a] > sc.priority[b] || sc.priority[a] == sc.priority[b] && a < b {
				best = k
			}
		}
		pick := ready[best]
		ready[best] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		sc.ord = append(sc.ord, pick)
		for _, s := range sc.succs[sc.succStart[pick]:sc.succStart[pick+1]] {
			sc.indeg[s]--
			if sc.indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	sc.ready = ready
}

// makespan simulates in-order single-issue execution of sc.ord over the
// body starting at instruction start and returns the cycle count,
// mirroring the simulator's pipeline model.
func (sc *scratch) makespan(f *rtl.FlatFn, start int32, costs *machine.Costs, pipelined bool) int {
	sc.issueAt = reuse.Zeroed(sc.issueAt, len(sc.lat))
	clock := 0
	for _, j := range sc.ord {
		at := clock
		for _, p := range sc.preds[sc.predStart[j]:sc.predStart[j+1]] {
			if t := sc.issueAt[p.idx] + p.lat; t > at {
				at = t
			}
		}
		sc.issueAt[j] = at
		if pipelined {
			i := start + j
			clock = at + costs.OccOf(f.Op[i], f.Width[i])
		} else {
			clock = at + sc.lat[j]
		}
	}
	return clock
}

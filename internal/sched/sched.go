// Package sched implements the dependence-DAG list scheduler vpo applies to
// basic blocks. The coalescer's profitability analysis (Figure 3 of the
// paper) calls EstimateFlat on the original loop body and on the coalesced
// copy and keeps whichever needs fewer cycles, so the scheduler's cost
// model is the machine's Sched table — what the compiler believes, which on
// the 68030 deliberately diverges from what the simulator delivers.
package sched

import (
	"sort"

	"macc/internal/machine"
	"macc/internal/rtl"
)

type node struct {
	in       *rtl.Instr
	idx      int
	preds    []pred
	nsucc    []int
	priority int // longest latency path to any sink
	indeg    int
}

type pred struct {
	idx int
	lat int // cycles that must elapse between issue of pred and this
}

// buildDAG constructs dependence edges over the block body (terminator
// excluded): register RAW/WAR/WAW, memory ordering with base+displacement
// disambiguation, and call barriers.
func buildDAG(instrs []*rtl.Instr, costs *machine.Costs) []*node {
	n := len(instrs)
	nodes := make([]*node, n)
	for i, in := range instrs {
		nodes[i] = &node{in: in, idx: i}
	}
	addEdge := func(from, to, lat int) {
		if from == to {
			return
		}
		nodes[to].preds = append(nodes[to].preds, pred{idx: from, lat: lat})
		nodes[from].nsucc = append(nodes[from].nsucc, to)
		nodes[to].indeg++
	}

	lastDef := make(map[rtl.Reg]int) // reg -> instr index of last definition
	lastUses := make(map[rtl.Reg][]int)
	var memOps []int
	lastBarrier := -1
	var regs []rtl.Reg

	defsBetween := func(r rtl.Reg, i, j int) bool {
		for k := i + 1; k <= j; k++ {
			if d, ok := instrs[k].Def(); ok && d == r {
				return true
			}
		}
		return false
	}
	overlaps := func(a, b *rtl.Instr) bool {
		ra, okA := a.A.IsReg()
		rb, okB := b.A.IsReg()
		if !okA || !okB || ra != rb {
			return true // different or unknown bases: assume aliasing
		}
		aLo, aHi := a.Disp, a.Disp+int64(a.Width)
		bLo, bHi := b.Disp, b.Disp+int64(b.Width)
		return aLo < bHi && bLo < aHi
	}

	for i, in := range instrs {
		// Register RAW edges.
		regs = in.Uses(regs[:0])
		for _, r := range regs {
			if di, ok := lastDef[r]; ok {
				addEdge(di, i, costs.Of(instrs[di]))
			}
		}
		// Register WAR and WAW edges.
		if d, ok := in.Def(); ok {
			for _, ui := range lastUses[d] {
				addEdge(ui, i, 0)
			}
			if di, ok := lastDef[d]; ok {
				addEdge(di, i, 0)
			}
		}
		// Memory ordering.
		if in.Op == rtl.Call {
			for _, mi := range memOps {
				addEdge(mi, i, 0)
			}
			if lastBarrier >= 0 {
				addEdge(lastBarrier, i, 0)
			}
			lastBarrier = i
		}
		if lastBarrier >= 0 && in.IsMem() {
			addEdge(lastBarrier, i, 0)
		}
		if in.IsMem() {
			for _, mi := range memOps {
				prev := instrs[mi]
				if prev.Op == rtl.Load && in.Op == rtl.Load {
					continue // loads commute
				}
				// A store is involved: keep order unless provably disjoint.
				if br, ok := in.A.IsReg(); ok {
					if pbr, ok2 := prev.A.IsReg(); ok2 && br == pbr && defsBetween(br, mi, i) {
						addEdge(mi, i, 0) // base changed: cannot disambiguate
						continue
					}
				}
				if overlaps(prev, in) {
					lat := 0
					if prev.Op == rtl.Store && in.Op == rtl.Load {
						lat = costs.Of(prev) // store-to-load forwarding delay
					}
					addEdge(mi, i, lat)
				}
			}
			memOps = append(memOps, i)
		}

		// Update tables.
		for _, r := range regs {
			lastUses[r] = append(lastUses[r], i)
		}
		if d, ok := in.Def(); ok {
			lastDef[d] = i
			lastUses[d] = nil
		}
	}

	// Priorities: longest path (by latency) to a sink, computed backwards.
	for i := n - 1; i >= 0; i-- {
		nd := nodes[i]
		nd.priority = costs.Of(nd.in)
		for _, s := range nd.nsucc {
			// Edge latency is stored on the successor's pred entry; use the
			// conservative producer latency for the path metric.
			if p := nodes[s].priority + costs.Of(nd.in); p > nd.priority {
				nd.priority = p
			}
		}
	}
	return nodes
}

// order produces a list schedule: repeatedly issue the ready node with the
// longest critical path, tie-broken by original position (stability).
func order(nodes []*node) []int {
	n := len(nodes)
	indeg := make([]int, n)
	for i, nd := range nodes {
		indeg[i] = nd.indeg
	}
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	out := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool {
			na, nb := nodes[ready[a]], nodes[ready[b]]
			if na.priority != nb.priority {
				return na.priority > nb.priority
			}
			return na.idx < nb.idx
		})
		pick := ready[0]
		ready = ready[1:]
		out = append(out, pick)
		for _, s := range nodes[pick].nsucc {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return out
}

// makespan simulates in-order single-issue execution of the given order and
// returns the cycle count, mirroring the simulator's pipeline model.
func makespan(nodes []*node, ord []int, costs *machine.Costs, pipelined bool) int {
	issueAt := make([]int, len(nodes))
	clock := 0
	for _, i := range ord {
		nd := nodes[i]
		start := clock
		for _, p := range nd.preds {
			if t := issueAt[p.idx] + p.lat; t > start {
				start = t
			}
		}
		issueAt[i] = start
		if pipelined {
			clock = start + costs.OccOf(nd.in)
		} else {
			clock = start + costs.Of(nd.in)
		}
	}
	// Account for the block's terminator/branch overhead.
	return clock
}

// Package cfg provides control-flow analyses over rtl functions:
// predecessor maps, reverse postorder, dominator trees, and natural-loop
// detection with preheader insertion. The coalescing algorithm of the paper
// is driven by "for each loop in the current function" (Figure 2), and its
// run-time checks are emitted into loop preheaders, so these analyses are
// its substrate.
package cfg

import (
	"cmp"
	"slices"

	"macc/internal/reuse"
	"macc/internal/rtl"
)

// FlatGraph caches derived control-flow structure for one function of a
// flat program: a depth-first traversal from the entry, reverse postorder,
// Cooper–Harvey–Kennedy dominators, and natural-loop discovery, computed
// over the FlatFn's dense arrays with block indices naming blocks.
// Successors are read straight from the terminators' Target/Else fields;
// the flat image keeps no other edge state, so this is the only CFG.
// It becomes stale when the function's blocks or terminators change;
// recompute with NewFlat, or with NewFlatInto to reuse its storage. Existing block indices stay valid across the
// edits passes make (appended blocks, spliced instructions), so a stale
// graph may still be queried about the blocks it was built over — the
// passes rely on that to visit loops and insert preheaders in a fixed,
// reproducible order.
type FlatGraph struct {
	P  *rtl.FlatProgram
	F  *rtl.FlatFn
	Fi int
	// Preds lists each block's predecessors in DFS discovery order.
	Preds [][]int32
	// RPO is the reverse postorder over reachable blocks.
	RPO []int32
	// rpoIndex maps a block index to its position in RPO (-1 unreachable).
	rpoIndex []int32
	// idom maps each reachable block to its immediate dominator (-1 when
	// not computed; the entry maps to itself).
	idom []int32

	// Storage kept for NewFlatInto: the slab Preds' lists are carved from
	// and the depth-first traversal's buffers.
	predSlab []int32
	seen     []bool
	post     []int32
}

// FlatSuccs appends block bi's successor indices to buf, in terminator
// order (Jump: Target; Branch: Target then Else), the order Block.Succs
// reports on a materialized function.
func FlatSuccs(f *rtl.FlatFn, bi int32, buf []int32) []int32 {
	ti, op, ok := f.TermIdx(bi)
	if !ok {
		return buf
	}
	switch op {
	case rtl.Jump:
		buf = append(buf, f.Target[ti])
	case rtl.Branch:
		buf = append(buf, f.Target[ti], f.Else[ti])
	}
	return buf
}

// NewFlat computes predecessors, reverse postorder, and dominators for
// function fi of fp.
func NewFlat(fp *rtl.FlatProgram, fi int) *FlatGraph {
	return NewFlatInto(fp, fi, new(FlatGraph))
}

// NewFlatInto rebuilds g in place as NewFlat(fp, fi) and returns it. Every
// table g already holds is reused when large enough, so rebuilding a graph
// for a function no bigger than the last one allocates nothing; anything
// still holding g's old tables sees them overwritten.
func NewFlatInto(fp *rtl.FlatProgram, fi int, g *FlatGraph) *FlatGraph {
	f := &fp.Fns[fi]
	nb := len(f.Blocks)
	g.P, g.F, g.Fi = fp, f, fi
	// Every block's predecessor list is carved from one slab with room for
	// each edge into the block, so the traversal's appends never allocate.
	// rpoIndex counts the edges first.
	g.rpoIndex = reuse.Zeroed(g.rpoIndex, nb)
	edges := 0
	var sbuf [2]int32
	for bi := range f.Blocks {
		for _, s := range FlatSuccs(f, int32(bi), sbuf[:0]) {
			g.rpoIndex[s]++
			edges++
		}
	}
	g.predSlab = reuse.Zeroed(g.predSlab, edges)
	g.Preds = reuse.Zeroed(g.Preds, nb)
	g.idom = reuse.Zeroed(g.idom, nb)
	off := int32(0)
	for bi := range g.Preds {
		end := off + g.rpoIndex[bi]
		g.Preds[bi] = g.predSlab[off:off:end]
		off = end
		g.rpoIndex[bi] = -1
		g.idom[bi] = -1
	}
	g.seen = reuse.Zeroed(g.seen, nb)
	g.post = reuse.Zeroed(g.post, nb)[:0]
	if nb > 0 {
		g.dfs(0)
	}
	g.RPO = reuse.Zeroed(g.RPO, len(g.post))[:0]
	for i := len(g.post) - 1; i >= 0; i-- {
		g.rpoIndex[g.post[i]] = int32(len(g.RPO))
		g.RPO = append(g.RPO, g.post[i])
	}
	g.computeDominators()
	return g
}

// dfs visits block b and, depth first, every block reachable from it that
// has not been seen, recording each edge's predecessor in terminator order
// and posting b when its last successor is done.
func (g *FlatGraph) dfs(b int32) {
	g.seen[b] = true
	// Per-frame successor buffer: the recursion below would clobber a
	// shared one before the second successor is visited.
	var sbuf [2]int32
	for _, s := range FlatSuccs(g.F, b, sbuf[:0]) {
		g.Preds[s] = append(g.Preds[s], b)
		if !g.seen[s] {
			g.dfs(s)
		}
	}
	g.post = append(g.post, b)
}

// Reachable reports whether block bi is reachable from the entry.
func (g *FlatGraph) Reachable(bi int32) bool { return g.rpoIndex[bi] >= 0 }

// computeDominators runs the Cooper–Harvey–Kennedy iterative algorithm.
func (g *FlatGraph) computeDominators() {
	if len(g.RPO) == 0 {
		return
	}
	entry := g.RPO[0]
	g.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range g.RPO[1:] {
			newIdom := int32(-1)
			for _, p := range g.Preds[b] {
				if g.idom[p] < 0 {
					continue // predecessor not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = g.intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && g.idom[b] != newIdom {
				g.idom[b] = newIdom
				changed = true
			}
		}
	}
}

func (g *FlatGraph) intersect(a, b int32) int32 {
	for a != b {
		for g.rpoIndex[a] > g.rpoIndex[b] {
			a = g.idom[a]
		}
		for g.rpoIndex[b] > g.rpoIndex[a] {
			b = g.idom[b]
		}
	}
	return a
}

// Idom returns block bi's immediate dominator (the entry dominates itself),
// or -1 for an unreachable block.
func (g *FlatGraph) Idom(bi int32) int32 { return g.idom[bi] }

// Dominates reports whether block a dominates block b (reflexively).
func (g *FlatGraph) Dominates(a, b int32) bool {
	if !g.Reachable(a) || !g.Reachable(b) {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := g.idom[b]
		if next == b {
			return false
		}
		b = next
	}
}

// FlatLoop is a natural loop: a back edge latch->header plus the set of
// blocks that can reach the latch without passing through the header.
type FlatLoop struct {
	Header int32
	Latch  int32 // source of the back edge; with multiple back edges, one representative
	Blocks []int32
	// Preheader is the unique out-of-loop predecessor of the header once
	// EnsurePreheader has run; -1 before that.
	Preheader int32
	// Exits are the blocks outside the loop targeted from inside it.
	Exits []int32

	inLoop []bool
}

// Contains reports whether block bi belongs to the loop.
func (l *FlatLoop) Contains(bi int32) bool {
	return bi >= 0 && int(bi) < len(l.inLoop) && l.inLoop[bi]
}

// FindLoops discovers all natural loops, merging loops that share a header.
// The result is sorted innermost-first (fewer blocks, then header RPO
// position) so the coalescer visits inner loops before enclosing ones.
func (g *FlatGraph) FindLoops() []*FlatLoop {
	var byHeader []*FlatLoop // indexed by header block, allocated on the first back edge
	var loops []*FlatLoop
	var sbuf [2]int32
	for _, b := range g.RPO {
		for _, s := range FlatSuccs(g.F, b, sbuf[:0]) {
			if g.Dominates(s, b) {
				// back edge b -> s
				if byHeader == nil {
					byHeader = make([]*FlatLoop, len(g.F.Blocks))
				}
				l := byHeader[s]
				if l == nil {
					l = &FlatLoop{Header: s, Latch: b, Preheader: -1, inLoop: make([]bool, len(g.F.Blocks))}
					l.inLoop[s] = true
					byHeader[s] = l
					loops = append(loops, l)
				}
				l.collect(g, b)
			}
		}
	}
	for _, l := range loops {
		l.Blocks = make([]int32, 0, len(l.inLoop))
		for b, in := range l.inLoop {
			if in {
				l.Blocks = append(l.Blocks, int32(b))
			}
		}
		slices.SortFunc(l.Blocks, func(a, b int32) int {
			return cmp.Compare(g.rpoIndex[a], g.rpoIndex[b])
		})
		l.findExits(g)
	}
	// Headers are distinct, so the order is total and independent of the
	// order the loops were found in.
	slices.SortFunc(loops, func(a, b *FlatLoop) int {
		if c := cmp.Compare(len(a.Blocks), len(b.Blocks)); c != 0 {
			return c
		}
		return cmp.Compare(g.rpoIndex[a.Header], g.rpoIndex[b.Header])
	})
	return loops
}

func (l *FlatLoop) collect(g *FlatGraph, latch int32) {
	stack := []int32{latch}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if l.inLoop[b] {
			continue
		}
		l.inLoop[b] = true
		for _, p := range g.Preds[b] {
			if !l.inLoop[p] && g.Reachable(p) {
				stack = append(stack, p)
			}
		}
	}
}

func (l *FlatLoop) findExits(g *FlatGraph) {
	l.Exits = nil
	var sbuf [2]int32
	for _, b := range l.Blocks {
		for _, s := range FlatSuccs(g.F, b, sbuf[:0]) {
			if !l.inLoop[s] && !slices.Contains(l.Exits, s) {
				l.Exits = append(l.Exits, s)
			}
		}
	}
}

// EnsurePreheader guarantees the loop header has exactly one predecessor
// outside the loop and records it in l.Preheader: a lone outside
// predecessor that only falls into the header serves directly; otherwise a
// fresh forwarding block labelled "<header>.preheader" is appended and the
// outside predecessors' terminators are retargeted to it. It returns the
// (possibly new) preheader. Block indices of existing blocks are stable;
// the FlatGraph is stale afterwards if a block was inserted.
func (g *FlatGraph) EnsurePreheader(l *FlatLoop) int32 {
	var outside []int32
	for _, p := range g.Preds[l.Header] {
		if !l.Contains(p) {
			outside = append(outside, p)
		}
	}
	if len(outside) == 1 {
		p := outside[0]
		var sbuf [2]int32
		if succs := FlatSuccs(g.F, p, sbuf[:0]); len(succs) == 1 && succs[0] == l.Header {
			l.Preheader = p
			return p
		}
	}
	name := g.P.Intern(g.P.Syms[g.F.Blocks[l.Header].Name] + ".preheader")
	ph := g.F.NewBlock(name)
	jmp := rtl.MkInstr(rtl.Jump)
	jmp.Target = l.Header
	g.F.SpliceInstrs(ph, 0, 0, []rtl.FlatInstr{jmp})
	for _, p := range outside {
		ti, _, ok := g.F.TermIdx(p)
		if !ok {
			continue
		}
		if g.F.Target[ti] == l.Header {
			g.F.Target[ti] = ph
		}
		if g.F.Else[ti] == l.Header {
			g.F.Else[ti] = ph
		}
	}
	// The new block grew the block table; keep the membership set sized.
	l.inLoop = append(l.inLoop, false)
	l.Preheader = ph
	return ph
}

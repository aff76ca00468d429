package core

import (
	"sort"

	"macc/internal/cfg"
	"macc/internal/iv"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/sched"
	"macc/internal/telemetry"
)

// The driver for memory access coalescing: the Figure 2/3/4/5 pipeline run
// natively on rtl.FlatProgram. Every stage reads the flat arrays by index:
// classification and the hazard walk read the body block in place, check
// generation reads the partitions' footprints, and the surgery stages —
// loop replication, wide-reference insertion, preheader check emission, and
// terminator retargeting — edit the dense arrays in place.

// CoalesceMemoryAccesses walks every loop of function fi of fp
// innermost-first and applies memory access coalescing where safe and
// profitable. It returns one report per loop examined, and emits exactly one
// Passed or Missed optimization remark per examined loop into em (plus
// Analysis remarks for per-chunk hazard verdicts and run-time check
// emission). A nil em disables remarks.
func CoalesceMemoryAccesses(fp *rtl.FlatProgram, fi int, m *machine.Machine, opts Options, em telemetry.Emitter) []LoopReport {
	if !opts.Loads && !opts.Stores {
		return nil
	}
	em = telemetry.OrNop(em)
	var reports []LoopReport
	g := cfg.NewFlat(fp, fi)
	loops := g.FindLoops()
	for _, l := range loops {
		rep := coalesceLoop(fp, fi, g, l, m, opts, em)
		reports = append(reports, *rep)
		emitLoopRemark(em, rep)
		if rep.Applied {
			// The CFG is stale after surgery; recompute for further loops.
			g = cfg.NewFlat(fp, fi)
		}
	}
	return reports
}

// bodyBlock finds the single block carrying the loop's memory
// references; coalescing requires them all in one block (IsHazard's first
// test). It returns -1 and a reason token distinguishing the two failure
// shapes when no single body block carries them.
func bodyBlock(f *rtl.FlatFn, l *cfg.FlatLoop) (int32, string) {
	body := int32(-1)
	for _, bi := range l.Blocks {
		b := &f.Blocks[bi]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			if f.IsMem(i) {
				if body >= 0 && body != bi {
					return -1, "shape:refs-span-blocks"
				}
				body = bi
			}
		}
	}
	if body < 0 {
		return -1, "shape:no-memory-refs"
	}
	return body, ""
}

func coalesceLoop(fp *rtl.FlatProgram, fi int, g *cfg.FlatGraph, l *cfg.FlatLoop,
	m *machine.Machine, opts Options, em telemetry.Emitter) *LoopReport {

	f := &fp.Fns[fi]
	rep := &LoopReport{Header: fp.Syms[f.Blocks[l.Header].Name], Fn: fp.Syms[f.Name]}
	bodyBi, why := bodyBlock(f, l)
	if bodyBi < 0 {
		rep.Reason = why
		return rep
	}
	if bodyBi == l.Header && len(l.Blocks) > 2 {
		rep.Reason = "shape:refs-in-multi-block-header"
		return rep
	}
	// The body must run exactly once per iteration.
	if !g.Dominates(bodyBi, l.Latch) {
		rep.Reason = "shape:body-not-dominating-latch"
		return rep
	}
	info := iv.AnalyzeFlat(g, l)
	parts := classifyPartitions(f, bodyBi, info)
	if len(parts) == 0 {
		rep.Reason = "partition:no-analyzable-bases"
		return rep
	}
	chunks := findChunks(parts, m, opts)
	if len(chunks) == 0 {
		rep.Reason = "partition:no-consecutive-runs"
		return rep
	}
	safe := filterChunks(f, bodyBi, chunks, parts, info, m, opts, em, rep)
	if len(safe) == 0 {
		return rep
	}

	if l.Preheader < 0 {
		g.EnsurePreheader(l)
	}
	rep.Applied = doProfitabilityAnalysisAndModify(fp, fi, l, bodyBi, m, opts, safe, parts, info, rep)
	finishReport(em, rep, opts)
	return rep
}

// doProfitabilityAnalysisAndModify is the paper's Figure 3: replicate
// the loop, insert the wide references into the copy, statically schedule
// both bodies, and adopt the copy only if it is faster (or Force is set). On
// adoption the preheader gains the run-time alignment and alias checks that
// select between the coalesced copy and the original safe loop at run time
// (Figure 5's flow graph).
//
// info is the loop's induction analysis from before the preheader and the
// copy were added. Neither changes the loop's own blocks, so its registers,
// steps and control test still hold; its instruction indices may not, and
// the checks read none of them.
func doProfitabilityAnalysisAndModify(fp *rtl.FlatProgram, fi int, l *cfg.FlatLoop,
	bodyBi int32, m *machine.Machine, opts Options, chunks []*chunk,
	parts map[rtl.Reg]*partition, info *iv.FlatInfo, rep *LoopReport) bool {

	f := &fp.Fns[fi]
	// Static alignment feasibility: the pointer must advance by a multiple
	// of the wide width or alignment cannot be preserved across iterations.
	if m.MustAlign {
		var kept []*chunk
		for _, c := range chunks {
			if c.part.step%int64(c.wide) == 0 {
				kept = append(kept, c)
			}
		}
		chunks = kept
		if len(chunks) == 0 {
			rep.Reason = "alignment:step-incompatible-with-wide-width"
			return false
		}
	}

	// DoReplication: the clone blocks are appended at the end of the block
	// table, so discarding them is a truncation back to this watermark.
	nBlocks := int32(len(f.Blocks))
	cmap := fp.CloneRegion(fi, l.Blocks, ".coalesced")
	bodyCopy := cmap[bodyBi]

	// InsertWideReferences on the copy.
	applyChunks(f, bodyCopy, chunks, rep)

	// Schedule both loops and compare.
	rep.CyclesOriginal = sched.EstimateFlat(f, bodyBi, m)
	rep.CyclesCoalesced = sched.EstimateFlat(f, bodyCopy, m)
	if !opts.Force && rep.CyclesCoalesced >= rep.CyclesOriginal {
		f.TruncateBlocks(nBlocks)
		return false
	}

	// Build the run-time checks in the preheader and point its terminator
	// at the check branch: coalesced copy when every check passes, original
	// safe loop otherwise.
	okCond, nInstrs, nPairs, nAligns := emitChecks(f, l.Preheader, m, chunks, parts, info)
	rep.CheckInstrs = nInstrs
	rep.AliasCheckPairs = nPairs
	rep.AlignmentChecks = nAligns

	ti, _, _ := f.TermIdx(l.Preheader)
	copyHeader := cmap[l.Header]
	if okCond.Kind == rtl.KindNone {
		// Statically safe: enter the coalesced loop unconditionally; the
		// safe loop stays in place (unreachable-block cleanup removes it).
		if f.Target[ti] == l.Header {
			f.Target[ti] = copyHeader
		}
		if f.Else[ti] == l.Header {
			f.Else[ti] = copyHeader
		}
	} else {
		br := rtl.MkInstr(rtl.Branch)
		br.A = okCond
		br.Target = copyHeader
		br.Else = l.Header
		f.SetInstr(ti, br)
	}
	return true
}

// applyChunks rewrites the flat copy of the body block: narrow loads
// become extracts fed by a wide load placed before the first of the group;
// narrow stores become an insert chain completed by a wide store after the
// last of the group. The refs' indices are block-relative positions recorded
// on the original body, valid in the copy because replication preserves
// layout; each replaced instruction's fields are read from the copy just
// before it is overwritten.
func applyChunks(f *rtl.FlatFn, bodyCopy int32, chunks []*chunk, rep *LoopReport) {
	type insertion struct {
		pos   int // index in the original instruction numbering
		after bool
		in    rtl.FlatInstr
	}
	var insertions []insertion
	start := f.Blocks[bodyCopy].InstrStart

	for _, c := range chunks {
		base := rtl.R(c.part.base)
		if c.isLoad {
			wideReg := f.NewReg()
			wl := rtl.MkInstr(rtl.Load)
			wl.Dst = wideReg
			wl.A = base
			wl.Disp = c.minDisp
			wl.Width = c.wide
			insertions = append(insertions, insertion{pos: c.firstIndex(), in: wl})
			for _, r := range c.refs {
				off := r.disp - c.minDisp
				at := start + int32(r.index)
				ex := rtl.MkInstr(rtl.Extract)
				ex.Dst = f.Dst[at]
				ex.A = rtl.R(wideReg)
				ex.B = rtl.C(off)
				ex.Width = c.width
				ex.Signed = f.Signed[at]
				f.SetInstr(at, ex)
			}
			rep.WideLoads++
			rep.NarrowLoads += len(c.refs)
		} else {
			// Process stores in program order so the insert chain respects
			// any same-slot ordering.
			ordered := append([]ref(nil), c.refs...)
			sort.Slice(ordered, func(i, j int) bool { return ordered[i].index < ordered[j].index })
			cur := rtl.Operand{Kind: rtl.KindConst, Const: 0}
			for _, r := range ordered {
				at := start + int32(r.index)
				off := r.disp - c.minDisp
				nr := f.NewReg()
				ii := rtl.MkInstr(rtl.Insert)
				ii.Dst = nr
				ii.A = cur
				ii.B = f.B[at]
				ii.C = rtl.C(off)
				ii.Width = c.width
				f.SetInstr(at, ii)
				cur = rtl.R(nr)
			}
			ws := rtl.MkInstr(rtl.Store)
			ws.A = base
			ws.B = cur
			ws.Disp = c.minDisp
			ws.Width = c.wide
			insertions = append(insertions, insertion{pos: c.lastIndex(), after: true, in: ws})
			rep.WideStores++
			rep.NarrowStores += len(c.refs)
		}
	}

	// Apply insertions from the highest position down so earlier indices
	// stay valid.
	sort.Slice(insertions, func(i, j int) bool {
		if insertions[i].pos != insertions[j].pos {
			return insertions[i].pos > insertions[j].pos
		}
		// At equal positions, "after" insertions go in first so a "before"
		// at the same slot ends up earlier in the final order.
		return insertions[i].after && !insertions[j].after
	})
	for _, ins := range insertions {
		at := int32(ins.pos)
		if ins.after {
			at++
		}
		f.SpliceInstrs(bodyCopy, at, 0, []rtl.FlatInstr{ins.in})
	}
}

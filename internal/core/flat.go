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
// natively on rtl.FlatProgram. Classification, the hazard walk, and check
// generation read a decoded view of the body block; the surgery stages —
// loop replication, wide-reference insertion, preheader check emission, and
// terminator retargeting — edit the dense arrays in place.

// flatIV exposes the induction-variable facts the coalescer reads —
// invariance, basic-IV steps, and the loop-control test — from
// iv.FlatInfo.
type flatIV struct{ info *iv.FlatInfo }

func (s flatIV) Invariant(r rtl.Reg) bool { return s.info.Invariant(r) }

// IVStep returns the per-iteration step of basic induction variable r.
func (s flatIV) IVStep(r rtl.Reg) (int64, bool) {
	if biv := s.info.BasicIVs[r]; biv != nil {
		return biv.Step, true
	}
	return 0, false
}

// ControlInfo returns the loop-control IV register and its invariant bound;
// ok is false when no control test was recognized.
func (s flatIV) ControlInfo() (ctl rtl.Reg, bound rtl.Operand, ok bool) {
	if c := s.info.Control; c != nil {
		return c.IV, c.Bound, true
	}
	return rtl.NoReg, rtl.Operand{}, false
}

// CoalesceMemoryAccessesFlat walks every loop of function fi of fp
// innermost-first and applies memory access coalescing where safe and
// profitable. It returns one report per loop examined, and emits exactly one
// Passed or Missed optimization remark per examined loop into em (plus
// Analysis remarks for per-chunk hazard verdicts and run-time check
// emission). A nil em disables remarks.
func CoalesceMemoryAccessesFlat(fp *rtl.FlatProgram, fi int, m *machine.Machine, opts Options, em telemetry.Emitter) []LoopReport {
	if !opts.Loads && !opts.Stores {
		return nil
	}
	em = telemetry.OrNop(em)
	var reports []LoopReport
	g := cfg.NewFlat(fp, fi)
	loops := g.FindLoops()
	for _, l := range loops {
		rep := coalesceLoopFlat(fp, fi, g, l, m, opts, em)
		reports = append(reports, *rep)
		emitLoopRemark(em, rep)
		if rep.Applied {
			// The CFG is stale after surgery; recompute for further loops.
			g = cfg.NewFlat(fp, fi)
		}
	}
	return reports
}

// flatBodyBlock finds the single block carrying the loop's memory
// references; coalescing requires them all in one block (IsHazard's first
// test). It returns -1 and a reason token distinguishing the two failure
// shapes when no single body block carries them.
func flatBodyBlock(f *rtl.FlatFn, l *cfg.FlatLoop) (int32, string) {
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

// decodeFlatBlock materializes block bi as instruction views for the shared
// read-only analyses (classification, hazard walk, check ranges). The
// decoded values are snapshots: later preheader emission moves absolute
// instruction offsets but never changes the body's content.
func decodeFlatBlock(fp *rtl.FlatProgram, f *rtl.FlatFn, bi int32) []*rtl.Instr {
	b := &f.Blocks[bi]
	n := int(b.InstrEnd - b.InstrStart)
	slab := make([]rtl.Instr, n)
	views := make([]*rtl.Instr, n)
	for j := 0; j < n; j++ {
		i := b.InstrStart + int32(j)
		in := &slab[j]
		in.Op = f.Op[i]
		in.Dst = f.Dst[i]
		in.A = f.A[i]
		in.B = f.B[i]
		in.C = f.C[i]
		in.Width = f.Width[i]
		in.Signed = f.Signed[i]
		in.Disp = f.Disp[i]
		if ci := f.CallIdx[i]; ci >= 0 {
			c := &f.Calls[ci]
			in.Callee = fp.Syms[c.Callee]
			in.Args = f.Args[c.ArgStart:c.ArgEnd]
		}
		views[j] = in
	}
	return views
}

func coalesceLoopFlat(fp *rtl.FlatProgram, fi int, g *cfg.FlatGraph, l *cfg.FlatLoop,
	m *machine.Machine, opts Options, em telemetry.Emitter) *LoopReport {

	f := &fp.Fns[fi]
	rep := &LoopReport{Header: fp.Syms[f.Blocks[l.Header].Name], Fn: fp.Syms[f.Name]}
	bodyBi, why := flatBodyBlock(f, l)
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
	src := flatIV{info}

	body := decodeFlatBlock(fp, f, bodyBi)
	parts := classifyPartitions(body, src)
	if len(parts) == 0 {
		rep.Reason = "partition:no-analyzable-bases"
		return rep
	}
	chunks := findChunks(parts, m, opts)
	if len(chunks) == 0 {
		rep.Reason = "partition:no-consecutive-runs"
		return rep
	}
	safe := filterChunks(body, chunks, parts, src, m, opts, em, rep)
	if len(safe) == 0 {
		return rep
	}

	if l.Preheader < 0 {
		g.EnsurePreheader(l)
	}
	rep.Applied = doProfitabilityAnalysisAndModifyFlat(fp, fi, g, l, bodyBi, body, m, opts, safe, rep)
	finishReport(em, rep, opts)
	return rep
}

// doProfitabilityAnalysisAndModifyFlat is the paper's Figure 3: replicate
// the loop, insert the wide references into the copy, statically schedule
// both bodies, and adopt the copy only if it is faster (or Force is set). On
// adoption the preheader gains the run-time alignment and alias checks that
// select between the coalesced copy and the original safe loop at run time
// (Figure 5's flow graph).
func doProfitabilityAnalysisAndModifyFlat(fp *rtl.FlatProgram, fi int, g *cfg.FlatGraph,
	l *cfg.FlatLoop, bodyBi int32, body []*rtl.Instr, m *machine.Machine, opts Options,
	chunks []*chunk, rep *LoopReport) bool {

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
	applyChunksFlat(f, bodyCopy, chunks, rep)

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
	info := reanalyzeFlat(fp, fi, g, l)
	okCond, nInstrs, nPairs, nAligns, ok := emitChecks(flatChecks{f: f, bi: l.Preheader},
		body, m, chunks, flatIV{info})
	if !ok {
		f.TruncateBlocks(nBlocks)
		rep.Reason = "checks:ungeneratable"
		return false
	}
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

// reanalyzeFlat recomputes induction info for the loop for check
// generation: a fresh CFG (on which the just-appended clone region is
// unreachable), the same loop found again by header, and fresh induction
// info.
func reanalyzeFlat(fp *rtl.FlatProgram, fi int, g *cfg.FlatGraph, l *cfg.FlatLoop) *iv.FlatInfo {
	g2 := cfg.NewFlat(fp, fi)
	for _, l2 := range g2.FindLoops() {
		if l2.Header == l.Header {
			l2.Preheader = l.Preheader
			return iv.AnalyzeFlat(g2, l2)
		}
	}
	return iv.AnalyzeFlat(g, l)
}

// applyChunksFlat rewrites the flat copy of the body block: narrow loads
// become extracts fed by a wide load placed before the first of the group;
// narrow stores become an insert chain completed by a wide store after the
// last of the group. The refs' indices are block-relative positions recorded
// on the original body, valid in the copy because replication preserves
// layout; reads of the replaced instructions' fields come from the decoded
// snapshot (identical to the copy's content until the rewrite).
func applyChunksFlat(f *rtl.FlatFn, bodyCopy int32, chunks []*chunk, rep *LoopReport) {
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
				ex := rtl.MkInstr(rtl.Extract)
				ex.Dst = r.in.Dst
				ex.A = rtl.R(wideReg)
				ex.B = rtl.C(off)
				ex.Width = c.width
				ex.Signed = r.in.Signed
				f.SetInstr(start+int32(r.index), ex)
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
				val := r.in.B
				off := r.disp - c.minDisp
				nr := f.NewReg()
				ii := rtl.MkInstr(rtl.Insert)
				ii.Dst = nr
				ii.A = cur
				ii.B = val
				ii.C = rtl.C(off)
				ii.Width = c.width
				f.SetInstr(start+int32(r.index), ii)
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

// Package core implements memory access coalescing, the contribution of
// Davidson & Jinturkar, "Memory Access Coalescing: A Technique for
// Eliminating Redundant Memory Accesses" (PLDI 1994). Narrow loads and
// stores that an unrolled loop issues at consecutive displacements off the
// same pointer induction variable are replaced by one wide memory reference
// plus register extract/insert operations. Safety is established by a
// hazard analysis (Figure 4 of the paper) backed by run-time alias and
// alignment checks in the loop preheader (Figure 5), and profitability by
// statically scheduling the original and transformed loop bodies and
// keeping the faster (Figure 3).
//
// The optimizer runs on the flat (struct-of-arrays) RTL form, so the driver
// is too. The procedure names follow the paper: CoalesceMemoryAccesses is
// the Figure 2 driver; classifyPartitions is
// ClassifyMemoryReferencesIntoPartitions; IsHazard is Figure 4's safety
// walk; doProfitabilityAnalysisAndModify is Figure 3.
package core

import (
	"fmt"
	"sort"

	"macc/internal/iv"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/telemetry"
)

// Options selects which reference kinds to coalesce, matching the paper's
// evaluation columns ("coalesce loads" vs "coalesce loads and stores").
type Options struct {
	Loads  bool
	Stores bool
	// Force applies the transformation even when the schedule comparison
	// predicts no win (used to reproduce behaviour where the prediction is
	// wrong, and for ablations).
	Force bool
	// NoRuntimeChecks restricts coalescing to cases provable at compile
	// time: partitions may need no alias checks and, on aligning machines,
	// no alignment checks. The paper's observation is that this eliminates
	// almost every opportunity.
	NoRuntimeChecks bool
}

// DefaultOptions coalesces both loads and stores with run-time checks.
func DefaultOptions() Options { return Options{Loads: true, Stores: true} }

// LoopReport describes what happened to one candidate loop. Reason is a
// machine-readable token ("hazard:intervening-store",
// "profitability:sched-cycles 14>=14", ...) shared verbatim with the
// loop's optimization remark.
type LoopReport struct {
	Header          string
	Fn              string
	Applied         bool
	Reason          string
	WideLoads       int
	WideStores      int
	NarrowLoads     int // narrow loads replaced
	NarrowStores    int // narrow stores replaced
	CyclesOriginal  int
	CyclesCoalesced int
	CheckInstrs     int // run-time check instructions added to the preheader
	AliasCheckPairs int
	AlignmentChecks int
}

// ref is one narrow memory reference inside the loop body.
type ref struct {
	index int // position within the body block
	disp  int64
	width rtl.Width
}

// partition groups the references that share a base register, the paper's
// "unique identifier" (most probably the register containing the start
// address of the array). Its step and displacement envelope are the
// footprint the run-time alias checks bound.
type partition struct {
	base     rtl.Reg
	step     int64 // bytes of base motion per loop iteration (0 = invariant)
	loads    []ref
	stores   []ref
	minDisp  int64
	maxDisp  int64
	maxWidth int64
}

// chunk is one group of consecutive same-width references that a single
// wide reference can replace.
type chunk struct {
	part    *partition
	isLoad  bool
	refs    []ref // sorted by displacement; full coverage, no gaps
	width   rtl.Width
	wide    rtl.Width
	minDisp int64
	// needsAliasCheck lists the partitions whose run-time range must be
	// shown disjoint from this chunk's partition.
	needsAliasCheck map[rtl.Reg]bool
}

// emitLoopRemark converts one loop report into its Passed/Missed remark and
// the registry counters the evaluation tables read.
func emitLoopRemark(em telemetry.Emitter, rep *LoopReport) {
	em.Count("coalesce.loops_examined", 1)
	rem := telemetry.Remark{
		Pass:   "coalesce",
		Fn:     rep.Fn,
		Loop:   rep.Header,
		Reason: rep.Reason,
	}
	if rep.Applied {
		rem.Kind = telemetry.Passed
		rem.Name = "Coalesced"
		rem.Args = map[string]int64{
			"wide_loads":    int64(rep.WideLoads),
			"wide_stores":   int64(rep.WideStores),
			"narrow_loads":  int64(rep.NarrowLoads),
			"narrow_stores": int64(rep.NarrowStores),
			"sched_before":  int64(rep.CyclesOriginal),
			"sched_after":   int64(rep.CyclesCoalesced),
			"check_instrs":  int64(rep.CheckInstrs),
		}
		em.Count("coalesce.loops_coalesced", 1)
		em.Count("coalesce.wide_loads", int64(rep.WideLoads))
		em.Count("coalesce.wide_stores", int64(rep.WideStores))
		em.Count("coalesce.narrow_loads_eliminated", int64(rep.NarrowLoads))
		em.Count("coalesce.narrow_stores_eliminated", int64(rep.NarrowStores))
		em.Count("coalesce.check_instrs", int64(rep.CheckInstrs))
		em.Count("coalesce.alias_check_pairs", int64(rep.AliasCheckPairs))
		em.Count("coalesce.alignment_checks", int64(rep.AlignmentChecks))
		if rep.CheckInstrs > 0 {
			em.Observe("coalesce.check_instrs_per_loop", int64(rep.CheckInstrs))
		}
	} else {
		rem.Kind = telemetry.Missed
		rem.Name = "NotCoalesced"
		rem.Args = map[string]int64{}
		if rep.CyclesOriginal != 0 || rep.CyclesCoalesced != 0 {
			rem.Args["sched_before"] = int64(rep.CyclesOriginal)
			rem.Args["sched_after"] = int64(rep.CyclesCoalesced)
		}
		em.Count("coalesce.loops_missed", 1)
	}
	em.Emit(rem)
}

// filterChunks is the safety half of the Figure 2 driver: hazard analysis
// per chunk — chunks that fail are dropped, chunks that need run-time
// disambiguation record their alias pairs — followed by the trip-count
// restriction on alias checking. Each rejection is surfaced as an Analysis
// remark and a counter, so Table-IV-style "why not" questions have answers.
// On an empty result rep.Reason carries the first rejection.
func filterChunks(f *rtl.FlatFn, body int32, chunks []*chunk, parts map[rtl.Reg]*partition,
	info *iv.FlatInfo, m *machine.Machine, opts Options, em telemetry.Emitter,
	rep *LoopReport) []*chunk {

	var safe []*chunk
	firstReject := ""
	for _, c := range chunks {
		hz, verdict := IsHazard(f, body, c, parts)
		reason := "hazard:" + verdict
		switch {
		case hz == hazardUnsafe:
		case hz == hazardNeedsChecks && opts.NoRuntimeChecks:
			reason = "hazard:runtime-checks-disabled"
		case opts.NoRuntimeChecks && m.MustAlign && c.wide > c.width:
			// Alignment cannot be proven statically for pointer parameters.
			reason = "alignment:unprovable-statically"
		default:
			safe = append(safe, c)
			continue
		}
		if firstReject == "" {
			firstReject = reason
		}
		em.Count("coalesce.hazard_rejects", 1)
		em.Emit(telemetry.Remark{
			Kind: telemetry.Analysis, Pass: "coalesce", Fn: rep.Fn,
			Loop: rep.Header, Name: "HazardReject", Reason: reason,
			Args: map[string]int64{"refs": int64(len(c.refs))},
		})
	}
	if len(safe) == 0 {
		rep.Reason = firstReject
		return nil
	}
	// Run-time alias ranges need the loop trip count; without a recognized
	// control test, keep only chunks that need no alias checks.
	if info.Control == nil {
		var kept []*chunk
		for _, c := range safe {
			if len(c.needsAliasCheck) == 0 {
				kept = append(kept, c)
			}
		}
		safe = kept
		if len(safe) == 0 {
			rep.Reason = "alias:trip-count-unknown"
			return nil
		}
	}
	return safe
}

// finishReport fills the profitability reason once the transform decision is
// made, and emits the RuntimeChecks analysis remark for applied loops.
func finishReport(em telemetry.Emitter, rep *LoopReport, opts Options) {
	if rep.Applied {
		if opts.Force && rep.CyclesCoalesced >= rep.CyclesOriginal {
			rep.Reason = fmt.Sprintf("profitability:forced sched-cycles %d>=%d",
				rep.CyclesCoalesced, rep.CyclesOriginal)
		} else {
			rep.Reason = fmt.Sprintf("profitability:sched-cycles %d<%d",
				rep.CyclesCoalesced, rep.CyclesOriginal)
		}
		if rep.AlignmentChecks > 0 {
			em.Emit(telemetry.Remark{
				Kind: telemetry.Analysis, Pass: "coalesce", Fn: rep.Fn,
				Loop: rep.Header, Name: "RuntimeChecks",
				Reason: "alignment:runtime-check-emitted",
				Args: map[string]int64{
					"alignment_checks": int64(rep.AlignmentChecks),
					"alias_pairs":      int64(rep.AliasCheckPairs),
					"check_instrs":     int64(rep.CheckInstrs),
				},
			})
		} else if rep.AliasCheckPairs > 0 {
			em.Emit(telemetry.Remark{
				Kind: telemetry.Analysis, Pass: "coalesce", Fn: rep.Fn,
				Loop: rep.Header, Name: "RuntimeChecks",
				Reason: "alias:runtime-check-emitted",
				Args: map[string]int64{
					"alias_pairs":  int64(rep.AliasCheckPairs),
					"check_instrs": int64(rep.CheckInstrs),
				},
			})
		}
	} else if rep.Reason == "" {
		rep.Reason = fmt.Sprintf("profitability:sched-cycles %d>=%d",
			rep.CyclesCoalesced, rep.CyclesOriginal)
	}
}

// classifyPartitions groups the memory references of block body by base
// register. Only bases that are loop invariant or basic induction variables
// qualify; anything else cannot be described relative to the induction
// variable and is unsafe to coalesce (CalculateRelativeOffsets failing in
// the paper).
func classifyPartitions(f *rtl.FlatFn, body int32, info *iv.FlatInfo) map[rtl.Reg]*partition {
	parts := make(map[rtl.Reg]*partition)
	b := &f.Blocks[body]
	for i := b.InstrStart; i < b.InstrEnd; i++ {
		if !f.IsMem(i) {
			continue
		}
		base, ok := f.A[i].IsReg()
		if !ok {
			continue
		}
		var step int64
		if biv := info.BasicIVs[base]; biv != nil {
			step = biv.Step
		} else if !info.Invariant(base) {
			continue
		}
		disp, w := f.Disp[i], f.Width[i]
		p := parts[base]
		if p == nil {
			p = &partition{base: base, step: step, minDisp: disp, maxDisp: disp}
			parts[base] = p
		}
		r := ref{index: int(i - b.InstrStart), disp: disp, width: w}
		if f.Op[i] == rtl.Load {
			p.loads = append(p.loads, r)
		} else {
			p.stores = append(p.stores, r)
		}
		p.minDisp = min(p.minDisp, disp)
		p.maxDisp = max(p.maxDisp, disp)
		p.maxWidth = max(p.maxWidth, int64(w))
	}
	return parts
}

// findChunks slices each partition's sorted references into maximal runs of
// consecutive displacements and cuts each run into power-of-two groups that
// a single aligned wide reference covers.
func findChunks(parts map[rtl.Reg]*partition, m *machine.Machine, opts Options) []*chunk {
	var bases []rtl.Reg
	for b := range parts {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	var chunks []*chunk
	for _, b := range bases {
		p := parts[b]
		if opts.Loads {
			chunks = append(chunks, chunkRefs(p, p.loads, true, m)...)
		}
		if opts.Stores {
			chunks = append(chunks, chunkRefs(p, p.stores, false, m)...)
		}
	}
	return chunks
}

// dispSlot collects every reference sharing one displacement.
type dispSlot struct {
	disp int64
	refs []ref
}

func chunkRefs(p *partition, refs []ref, isLoad bool, m *machine.Machine) []*chunk {
	// Group by width; only same-width references coalesce. Several
	// references may share one displacement (an unrolled convolution
	// rereads the same pixels); they all ride the same wide reference —
	// that reuse is precisely the redundancy the paper's Figure 1 removes.
	byWidth := make(map[rtl.Width]map[int64][]ref)
	for _, r := range refs {
		m := byWidth[r.width]
		if m == nil {
			m = make(map[int64][]ref)
			byWidth[r.width] = m
		}
		m[r.disp] = append(m[r.disp], r)
	}
	var out []*chunk
	var widths []rtl.Width
	for w := range byWidth {
		widths = append(widths, w)
	}
	sort.Slice(widths, func(i, j int) bool { return widths[i] < widths[j] })
	for _, w := range widths {
		if w >= m.WordBytes {
			continue
		}
		var slots []dispSlot
		for d, rs := range byWidth[w] {
			slots = append(slots, dispSlot{disp: d, refs: rs})
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i].disp < slots[j].disp })
		// Split into maximal runs of consecutive displacements.
		var run []dispSlot
		flush := func() {
			out = append(out, cutRun(p, run, isLoad, w, m)...)
			run = nil
		}
		for _, s := range slots {
			if len(run) > 0 && s.disp != run[len(run)-1].disp+int64(w) {
				flush()
			}
			run = append(run, s)
		}
		flush()
	}
	return out
}

// cutRun cuts one consecutive run of displacement slots into the largest
// power-of-two groups the machine can load at once; groups covering fewer
// than two slots stay narrow.
func cutRun(p *partition, run []dispSlot, isLoad bool, w rtl.Width, m *machine.Machine) []*chunk {
	var out []*chunk
	i := 0
	for i < len(run) {
		c := m.MaxCoalesceFactor(w)
		for c > 1 && (i+c > len(run) || !rtl.Width(int64(c)*int64(w)).Valid()) {
			c /= 2
		}
		if c < 2 {
			i++
			continue
		}
		var group []ref
		for _, s := range run[i : i+c] {
			group = append(group, s.refs...)
		}
		out = append(out, &chunk{
			part:            p,
			isLoad:          isLoad,
			refs:            group,
			width:           w,
			wide:            rtl.Width(int64(c) * int64(w)),
			minDisp:         run[i].disp,
			needsAliasCheck: make(map[rtl.Reg]bool),
		})
		i += c
	}
	return out
}

// holds reports whether the instruction at body position index is one of
// the chunk's references.
func (c *chunk) holds(index int) bool {
	for _, r := range c.refs {
		if r.index == index {
			return true
		}
	}
	return false
}

// firstIndex and lastIndex give the chunk's extent in program order.
func (c *chunk) firstIndex() int {
	min := c.refs[0].index
	for _, r := range c.refs {
		if r.index < min {
			min = r.index
		}
	}
	return min
}

func (c *chunk) lastIndex() int {
	max := c.refs[0].index
	for _, r := range c.refs {
		if r.index > max {
			max = r.index
		}
	}
	return max
}

func (c *chunk) String() string {
	kind := "stores"
	if c.isLoad {
		kind = "loads"
	}
	return fmt.Sprintf("%s %s[%d..%d) w%d->w%d", kind, c.part.base,
		c.minDisp, c.minDisp+int64(c.wide), c.width, c.wide)
}

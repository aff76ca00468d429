// Package regalloc implements a Poletto–Sarkar linear-scan register
// allocator with spilling. The paper's machines have 32 general registers,
// and the unrolling that feeds coalescing multiplies live ranges, so
// register pressure is the practical ceiling on the unroll factor; this
// allocator makes that pressure measurable (the ablation benchmarks sweep
// the register file size and watch spill traffic erase the coalescing win).
//
// Conventions after Run(fp, fi, k):
//
//   - the function uses physical registers 0..k-1 only;
//   - parameters arrive in physical registers 0..len(params)-1, matching
//     the simulator's calling convention;
//   - register k-1 is the frame pointer when spills exist (FlatFn.FrameReg);
//     spill slots live at [FP+0, FP+8, ...] and FlatFn.FrameBytes reports
//     the frame size the simulator must reserve;
//   - registers k-2 and k-3 are scratch for spill reloads.
package regalloc

import (
	"fmt"
	"sort"

	"macc/internal/cfg"
	"macc/internal/dataflow"
	"macc/internal/rtl"
)

// MinRegs is the smallest register file Run accepts: two scratch registers,
// a frame pointer, and at least four allocatable registers.
const MinRegs = 7

// Stats reports what the allocation did.
type Stats struct {
	Physical  int // register file size
	Spilled   int // virtual registers assigned to stack slots
	FrameSize int // bytes of spill frame
	Intervals int // live intervals processed
}

type interval struct {
	vreg       rtl.Reg
	start, end int
	pinned     rtl.Reg // pre-colored physical register (params), or NoReg
	phys       rtl.Reg // assigned physical register, or NoReg when spilled
	slot       int     // spill slot index when phys == NoReg
}

// Run rewrites function fi of fp to use at most k physical registers,
// inserting spill code as needed. Parameters must number at most k-4.
func Run(fp *rtl.FlatProgram, fi int, k int) (Stats, error) {
	f := &fp.Fns[fi]
	if k < MinRegs {
		return Stats{}, fmt.Errorf("regalloc: need at least %d registers, have %d", MinRegs, k)
	}
	if len(f.Params) > k-4 {
		return Stats{}, fmt.Errorf("regalloc: %d parameters exceed %d-register convention", len(f.Params), k)
	}
	frameReg := rtl.Reg(k - 1)
	scratch := [2]rtl.Reg{rtl.Reg(k - 2), rtl.Reg(k - 3)}
	allocatable := k - 3

	ivs := buildIntervals(fp, fi)
	assignLocations(ivs, allocatable)

	loc := make(map[rtl.Reg]*interval, len(ivs))
	spilled := 0
	maxSlot := -1
	for _, iv := range ivs {
		loc[iv.vreg] = iv
		if iv.phys == rtl.NoReg {
			spilled++
			if iv.slot > maxSlot {
				maxSlot = iv.slot
			}
		}
	}
	rewrite(f, loc, frameReg, scratch)
	frame := 0
	if spilled > 0 {
		frame = (maxSlot + 1) * 8
		f.FrameReg = frameReg
		f.FrameBytes = int64(frame)
	}
	if rtl.Reg(k) > f.NextReg {
		f.NextReg = rtl.Reg(k)
	}
	return Stats{Physical: k, Spilled: spilled, FrameSize: frame, Intervals: len(ivs)}, nil
}

// buildIntervals computes one conservative live interval per virtual
// register over the block layout order — an instruction's position is its
// dense index — extending intervals across whole blocks where liveness says
// the value crosses them (the standard adaptation that keeps linear scan
// sound on loops).
func buildIntervals(fp *rtl.FlatProgram, fi int) []*interval {
	f := &fp.Fns[fi]
	lv := dataflow.ComputeFlatLiveness(cfg.NewFlat(fp, fi))

	ivs := make(map[rtl.Reg]*interval)
	extend := func(r rtl.Reg, p int) {
		iv := ivs[r]
		if iv == nil {
			iv = &interval{vreg: r, start: p, end: p, pinned: rtl.NoReg, phys: rtl.NoReg}
			ivs[r] = iv
			return
		}
		if p < iv.start {
			iv.start = p
		}
		if p > iv.end {
			iv.end = p
		}
	}
	for i, p := range f.Params {
		extend(p, 0)
		ivs[p].pinned = rtl.Reg(i)
	}
	var regs []rtl.Reg
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		first, last := int(b.InstrStart), int(b.InstrEnd)-1
		lv.LiveInSet(int32(bi)).ForEach(func(r int) {
			extend(rtl.Reg(r), first)
		})
		lv.LiveOutSet(int32(bi)).ForEach(func(r int) {
			extend(rtl.Reg(r), last)
		})
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			regs = f.SrcRegs(i, regs[:0])
			for _, r := range regs {
				extend(r, int(i))
			}
			if d, ok := f.Def(i); ok {
				extend(d, int(i))
			}
		}
	}
	out := make([]*interval, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, iv)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].vreg < out[j].vreg
	})
	return out
}

// assignLocations runs the linear scan: pinned intervals take their
// pre-colored registers, others take free registers, and when none is free
// the interval with the furthest end is spilled.
func assignLocations(ivs []*interval, allocatable int) {
	free := make([]bool, allocatable)
	for i := range free {
		free[i] = true
	}
	var active []*interval
	nextSlot := 0

	expire := func(start int) {
		kept := active[:0]
		for _, a := range active {
			if a.end < start {
				if a.phys != rtl.NoReg {
					free[a.phys] = true
				}
			} else {
				kept = append(kept, a)
			}
		}
		active = kept
	}
	addActive := func(iv *interval) {
		active = append(active, iv)
		sort.Slice(active, func(i, j int) bool { return active[i].end < active[j].end })
	}

	for _, iv := range ivs {
		expire(iv.start)
		if iv.pinned != rtl.NoReg {
			// Parameters take their convention register unconditionally;
			// any active interval holding it must move to a spill slot.
			for _, a := range active {
				if a.phys == iv.pinned {
					a.phys = rtl.NoReg
					a.slot = nextSlot
					nextSlot++
				}
			}
			iv.phys = iv.pinned
			free[iv.phys] = false
			addActive(iv)
			continue
		}
		picked := rtl.NoReg
		for r := 0; r < allocatable; r++ {
			if free[r] {
				picked = rtl.Reg(r)
				break
			}
		}
		if picked != rtl.NoReg {
			iv.phys = picked
			free[picked] = false
			addActive(iv)
			continue
		}
		// Spill the active interval ending last (unless pinned), or this one.
		victim := iv
		for i := len(active) - 1; i >= 0; i-- {
			if active[i].pinned == rtl.NoReg && active[i].phys != rtl.NoReg {
				if active[i].end > iv.end {
					victim = active[i]
				}
				break
			}
		}
		if victim != iv {
			iv.phys = victim.phys
			victim.phys = rtl.NoReg
			victim.slot = nextSlot
			nextSlot++
			addActive(iv)
		} else {
			iv.phys = rtl.NoReg
			iv.slot = nextSlot
			nextSlot++
		}
	}
}

// rewrite renames every operand to its physical register, or routes it
// through a scratch register with a reload/store when spilled. Renaming is
// in place; a block that gains spill code is re-laid in one splice.
func rewrite(f *rtl.FlatFn, loc map[rtl.Reg]*interval, frameReg rtl.Reg, scratch [2]rtl.Reg) {
	var out []rtl.FlatInstr
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		n := b.InstrEnd - b.InstrStart
		out = out[:0]
		for i := b.InstrStart; i < b.InstrEnd; i++ {
			nextScratch := 0
			// Reload spilled sources into scratch registers.
			seen := map[rtl.Reg]rtl.Reg{} // vreg -> scratch already holding it
			for k, n := 0, f.NumSrcs(i); k < n; k++ {
				o := f.Src(i, k)
				r, ok := o.IsReg()
				if !ok {
					continue
				}
				iv := loc[r]
				if iv == nil {
					continue // never-used register (defensive)
				}
				if iv.phys != rtl.NoReg {
					o.Reg = iv.phys
					continue
				}
				if s, dup := seen[r]; dup {
					o.Reg = s
					continue
				}
				s := scratch[nextScratch]
				nextScratch = (nextScratch + 1) % len(scratch)
				reload := rtl.MkInstr(rtl.Load)
				reload.Dst, reload.A = s, rtl.R(frameReg)
				reload.Disp, reload.Width = int64(iv.slot)*8, rtl.W8
				out = append(out, reload)
				seen[r] = s
				o.Reg = s
			}
			var spill *rtl.FlatInstr
			if d, ok := f.Def(i); ok {
				iv := loc[d]
				switch {
				case iv == nil:
					// dead def; leave as is (DCE normally removed it)
				case iv.phys != rtl.NoReg:
					f.Dst[i] = iv.phys
				default:
					s := scratch[0]
					f.Dst[i] = s
					st := rtl.MkInstr(rtl.Store)
					st.A, st.B = rtl.R(frameReg), rtl.R(s)
					st.Disp, st.Width = int64(iv.slot)*8, rtl.W8
					spill = &st
				}
			}
			out = append(out, f.Instr(i))
			if spill != nil {
				out = append(out, *spill)
			}
		}
		if int32(len(out)) != n {
			f.SpliceInstrs(int32(bi), 0, n, out)
		}
	}
	for i := range f.Params {
		f.Params[i] = rtl.Reg(i)
	}
}

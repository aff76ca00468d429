package sched_test

import (
	"math"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/cfg"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/sched"
)

func block(f *rtl.Fn, ins ...*rtl.Instr) {
	f.Entry().Instrs = ins
}

// flatten turns f into a one-function flat program.
func flatten(t *testing.T, f *rtl.Fn) *rtl.FlatProgram {
	t.Helper()
	fp, err := rtl.Flatten(rtl.NewProgram(f))
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// schedule list-schedules f's entry block on the flat form and returns the
// scheduled block plus the estimated cycle count.
func schedule(t *testing.T, f *rtl.Fn, m *machine.Machine) (*rtl.Block, int) {
	t.Helper()
	fp := flatten(t, f)
	cycles := sched.ScheduleFlat(&fp.Fns[0], 0, m)
	return fp.UnflattenFn(0).Entry(), cycles
}

// estimate is the scheduled cycle count of f's entry block.
func estimate(t *testing.T, f *rtl.Fn, m *machine.Machine) int {
	t.Helper()
	return sched.EstimateFlat(&flatten(t, f).Fns[0], 0, m)
}

// positions maps each instruction (by its printed form, unique in these
// tests) to its position in the block.
func positions(t *testing.T, b *rtl.Block) func(*rtl.Instr) int {
	m := make(map[string]int)
	for i, in := range b.Instrs {
		m[in.String()] = i
	}
	return func(in *rtl.Instr) int {
		i, ok := m[in.String()]
		if !ok {
			t.Fatalf("%s missing from the scheduled block %v", in, b.Instrs)
		}
		return i
	}
}

func TestScheduleKeepsDataDependences(t *testing.T) {
	f := rtl.NewFn("t", 2)
	a, b := f.Params[0], f.Params[1]
	t1, t2, t3 := f.NewReg(), f.NewReg(), f.NewReg()
	i1 := rtl.BinI(rtl.Add, t1, rtl.R(a), rtl.R(b))
	i2 := rtl.BinI(rtl.Mul, t2, rtl.R(t1), rtl.C(3))
	i3 := rtl.BinI(rtl.Add, t3, rtl.R(t2), rtl.C(1))
	block(f, i1, i2, i3, rtl.RetI(rtl.R(t3)))
	bb, _ := schedule(t, f, machine.Alpha())
	pos := positions(t, bb)
	if !(pos(i1) < pos(i2) && pos(i2) < pos(i3)) {
		t.Errorf("RAW chain reordered: %v", bb.Instrs)
	}
	if bb.Term().Op != rtl.Ret {
		t.Error("terminator must stay last")
	}
}

func TestScheduleHoistsLoadsAboveIndependentWork(t *testing.T) {
	// load late in the block with a dependent add after: the scheduler
	// should pull the load early so its latency overlaps the alu chain.
	f := rtl.NewFn("t", 2)
	p := f.Params[0]
	x := f.Params[1]
	t1, t2, v, s := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	a1 := rtl.BinI(rtl.Add, t1, rtl.R(x), rtl.C(1))
	a2 := rtl.BinI(rtl.Add, t2, rtl.R(t1), rtl.C(1))
	ld := rtl.LoadI(v, rtl.R(p), 0, rtl.W8, false)
	use := rtl.BinI(rtl.Add, s, rtl.R(v), rtl.R(t2))
	block(f, a1, a2, ld, use, rtl.RetI(rtl.R(s)))
	bb, cycles := schedule(t, f, machine.Alpha())
	if positions(t, bb)(ld) != 0 {
		t.Errorf("load not hoisted to front: %v", bb.Instrs)
	}
	if cycles <= 0 {
		t.Errorf("cycles = %d", cycles)
	}
}

func TestScheduleRespectsMemoryOrder(t *testing.T) {
	// store then load of a possibly-aliasing address must not swap.
	f := rtl.NewFn("t", 2)
	p, q := f.Params[0], f.Params[1]
	v := f.NewReg()
	st := rtl.StoreI(rtl.R(p), 0, rtl.C(1), rtl.W4)
	ld := rtl.LoadI(v, rtl.R(q), 0, rtl.W4, true)
	block(f, st, ld, rtl.RetI(rtl.R(v)))
	bb, _ := schedule(t, f, machine.Alpha())
	pos := positions(t, bb)
	if pos(st) > pos(ld) {
		t.Error("aliasing store/load reordered")
	}
}

func TestScheduleDisambiguatesSameBase(t *testing.T) {
	// store [p+0] and load [p+8] cannot alias: the load (with a long
	// dependent chain behind it) may move above the store.
	f := rtl.NewFn("t", 2)
	p := f.Params[0]
	x := f.Params[1]
	v, s, u1, u2 := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	slow := rtl.BinI(rtl.Mul, s, rtl.R(x), rtl.R(x))
	st := rtl.StoreI(rtl.R(p), 0, rtl.R(s), rtl.W4)
	ld := rtl.LoadI(v, rtl.R(p), 8, rtl.W4, true)
	use1 := rtl.BinI(rtl.Mul, u1, rtl.R(v), rtl.R(v))
	use2 := rtl.BinI(rtl.Add, u2, rtl.R(u1), rtl.C(1))
	block(f, slow, st, ld, use1, use2, rtl.RetI(rtl.R(u2)))
	bb, _ := schedule(t, f, machine.Alpha())
	pos := positions(t, bb)
	if pos(ld) > pos(st) {
		t.Errorf("provably disjoint load stuck behind store: %v", bb.Instrs)
	}
	// Sanity: with an overlapping displacement the order must hold.
	f2 := rtl.NewFn("t2", 2)
	p2, x2 := f2.Params[0], f2.Params[1]
	v2, s2, w1, w2 := f2.NewReg(), f2.NewReg(), f2.NewReg(), f2.NewReg()
	slow2 := rtl.BinI(rtl.Mul, s2, rtl.R(x2), rtl.R(x2))
	st2 := rtl.StoreI(rtl.R(p2), 0, rtl.R(s2), rtl.W4)
	ld2 := rtl.LoadI(v2, rtl.R(p2), 2, rtl.W4, true) // overlaps [0,4)
	useA := rtl.BinI(rtl.Mul, w1, rtl.R(v2), rtl.R(v2))
	useB := rtl.BinI(rtl.Add, w2, rtl.R(w1), rtl.C(1))
	block(f2, slow2, st2, ld2, useA, useB, rtl.RetI(rtl.R(w2)))
	bb2, _ := schedule(t, f2, machine.Alpha())
	pos2 := positions(t, bb2)
	if pos2(ld2) < pos2(st2) {
		t.Errorf("overlapping load hoisted above store: %v", bb2.Instrs)
	}
}

func TestScheduleKeepsOrderWhenBaseChanges(t *testing.T) {
	// p is rewritten between two references that use "the same" register;
	// they are not comparable and must stay ordered.
	f := rtl.NewFn("t", 1)
	p := f.Params[0]
	v := f.NewReg()
	st := rtl.StoreI(rtl.R(p), 0, rtl.C(7), rtl.W4)
	bump := rtl.BinI(rtl.Add, p, rtl.R(p), rtl.C(8))
	ld := rtl.LoadI(v, rtl.R(p), 0, rtl.W4, true)
	block(f, st, bump, ld, rtl.RetI(rtl.R(v)))
	bb, _ := schedule(t, f, machine.Alpha())
	pos := positions(t, bb)
	if !(pos(st) < pos(bump) && pos(bump) < pos(ld)) {
		t.Errorf("reordered across base update: %v", bb.Instrs)
	}
}

func TestCallIsBarrier(t *testing.T) {
	f := rtl.NewFn("t", 1)
	p := f.Params[0]
	v := f.NewReg()
	d := f.NewReg()
	st := rtl.StoreI(rtl.R(p), 0, rtl.C(1), rtl.W4)
	call := rtl.CallI(d, "g")
	ld := rtl.LoadI(v, rtl.R(p), 0, rtl.W4, true)
	block(f, st, call, ld, rtl.RetI(rtl.R(v)))
	bb, _ := schedule(t, f, machine.Alpha())
	pos := positions(t, bb)
	if !(pos(st) < pos(call) && pos(call) < pos(ld)) {
		t.Errorf("memory moved across call: %v", bb.Instrs)
	}
}

func TestEstimateDoesNotMutate(t *testing.T) {
	f := rtl.NewFn("t", 2)
	a, b := f.Params[0], f.Params[1]
	t1, t2 := f.NewReg(), f.NewReg()
	i1 := rtl.BinI(rtl.Mul, t1, rtl.R(a), rtl.R(b))
	i2 := rtl.BinI(rtl.Add, t2, rtl.R(a), rtl.C(1))
	block(f, i1, i2, rtl.RetI(rtl.R(t2)))
	fp := flatten(t, f)
	before := fp.UnflattenFn(0).String()
	c1 := sched.EstimateFlat(&fp.Fns[0], 0, machine.Alpha())
	if fp.UnflattenFn(0).String() != before {
		t.Fatal("EstimateFlat reordered the block")
	}
	c2 := sched.ScheduleFlat(&fp.Fns[0], 0, machine.Alpha())
	if c1 != c2 {
		t.Errorf("EstimateFlat (%d) and ScheduleFlat (%d) disagree", c1, c2)
	}
}

func TestUnpipelinedCostIsSumOfCosts(t *testing.T) {
	f := rtl.NewFn("t", 2)
	a, b := f.Params[0], f.Params[1]
	t1, t2 := f.NewReg(), f.NewReg()
	i1 := rtl.BinI(rtl.Add, t1, rtl.R(a), rtl.R(b))
	i2 := rtl.BinI(rtl.Add, t2, rtl.R(a), rtl.R(b))
	block(f, i1, i2, rtl.RetI(rtl.R(t2)))
	m := machine.M68030()
	got := estimate(t, f, m)
	want := 2*m.Sched.Alu + m.Sched.Branch
	if got != want {
		t.Errorf("unpipelined estimate = %d, want %d", got, want)
	}
}

func TestSchedulingReducesEstimatedCycles(t *testing.T) {
	// Two independent load->use pairs: interleaving hides latency.
	f := rtl.NewFn("t", 2)
	p, q := f.Params[0], f.Params[1]
	v1, v2, s1, s2, s3 := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	ins := []*rtl.Instr{
		rtl.LoadI(v1, rtl.R(p), 0, rtl.W8, false),
		rtl.BinI(rtl.Add, s1, rtl.R(v1), rtl.C(1)),
		rtl.LoadI(v2, rtl.R(q), 0, rtl.W8, false),
		rtl.BinI(rtl.Add, s2, rtl.R(v2), rtl.C(1)),
		rtl.BinI(rtl.Add, s3, rtl.R(s1), rtl.R(s2)),
		rtl.RetI(rtl.R(s3)),
	}
	block(f, ins...)
	// Cost of the original order, simulated naively: load latency stalls
	// both adds. After scheduling the loads should lead.
	bb, after := schedule(t, f, machine.Alpha())
	pos := positions(t, bb)
	if pos(ins[2]) > pos(ins[1]) {
		t.Errorf("independent load not hoisted: %v", bb.Instrs)
	}
	if after <= 0 {
		t.Error("bad cycle estimate")
	}
}

// minAllocs is the fewest objects one call of f allocated over a few
// single-call samples: the scratch pool may drop an item now and then (the
// race detector's runtime does so on purpose), which costs a sample one
// fresh scratch.
func minAllocs(f func()) float64 {
	best := math.Inf(1)
	for range 20 {
		best = min(best, testing.AllocsPerRun(1, f))
	}
	return best
}

// TestSchedulingAllocatesNothingWhenWarm schedules every block of every
// loop of each paper kernel's optimized compile: once the scratch pool is
// warm, neither an estimate nor a reordering allocates.
func TestSchedulingAllocatesNothingWhenWarm(t *testing.T) {
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		for _, m := range machine.All() {
			conf := macc.DefaultConfig()
			conf.Machine = m
			p, err := macc.Compile(bm.Src, conf)
			if err != nil {
				t.Fatalf("%s: %v", bm.Name, err)
			}
			fp := p.Flat
			bodies := 0
			for fi := range fp.Fns {
				f := &fp.Fns[fi]
				for _, l := range cfg.NewFlat(fp, fi).FindLoops() {
					for _, bi := range l.Blocks {
						bodies++
						at := bm.Name + "/" + m.Name + "/" + fp.Syms[f.Blocks[bi].Name]
						if n := minAllocs(func() { sched.EstimateFlat(f, bi, m) }); n != 0 {
							t.Errorf("%s: EstimateFlat allocates %.0f objects", at, n)
						}
						if n := minAllocs(func() { sched.ScheduleFlat(f, bi, m) }); n != 0 {
							t.Errorf("%s: ScheduleFlat allocates %.0f objects", at, n)
						}
					}
				}
			}
			if bodies == 0 {
				t.Errorf("%s/%s: no loop blocks to schedule", bm.Name, m.Name)
			}
		}
	}
}

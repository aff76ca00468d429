package bench

// Hot-path measurement cores, shared between the go-test microbenchmarks
// (hotpath_bench_test.go) and cmd/hotpath, which packages the same numbers
// into the committed BENCH_hotpath.json baseline.

import (
	"fmt"
	"math/rand"

	"macc"
	"macc/internal/machine"
	"macc/internal/rtl"
)

// SimStepper compiles the dot-product kernel for m and returns a step
// function that performs one full simulated measurement — Reset, input
// setup, Run — on a single long-lived Sim, plus the executed instruction
// count per step and a release function returning the arena to the pool.
// This is the simulator MIPS probe: one decode, many runs.
func SimStepper(m *machine.Machine, wl Workload) (step func() error, instrsPerStep int64, release func(), err error) {
	bm := DotProduct()
	p, err := macc.Compile(bm.Src, macc.BaselineConfig(m))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("%s: %w", bm.Name, err)
	}
	rng := rand.New(rand.NewSource(wl.Seed))
	n := wl.Width * wl.Height
	av := make([]int64, n)
	bv := make([]int64, n)
	for i := 0; i < n; i++ {
		av[i] = int64(int16(rng.Intn(1<<16) - 1<<15))
		bv[i] = int64(int16(rng.Intn(1<<16) - 1<<15))
	}
	addrs := frames(wl, 2, 2)
	s := p.NewSim(memBytes)
	step = func() error {
		s.Reset()
		s.WriteInts(addrs[0], rtl.W2, av)
		s.WriteInts(addrs[1], rtl.W2, bv)
		res, err := s.Run("dotproduct", addrs[0], addrs[1], int64(n))
		if err != nil {
			return err
		}
		instrsPerStep = res.Instrs
		return nil
	}
	// Prime once so instrsPerStep is known to callers before their loop.
	if err := step(); err != nil {
		return nil, 0, nil, err
	}
	return step, instrsPerStep, func() { s.Release() }, nil
}

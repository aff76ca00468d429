package rtlgen_test

import (
	"bytes"
	"fmt"
	"testing"

	"macc/internal/cfg"
	"macc/internal/machine"
	"macc/internal/opt"
	"macc/internal/regalloc"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
	"macc/internal/sched"
	"macc/internal/sim"
)

const memBytes = rtlgen.MemWindow * 2

// mustGen generates the seed's function, failing the test on a generator
// bug instead of panicking.
func mustGen(t *testing.T, seed int64) *rtl.Fn {
	t.Helper()
	f, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// behaviour runs f on a fixed set of argument triples and returns a
// fingerprint of every return value and final memory image.
func behaviour(t *testing.T, f *rtl.Fn, m *machine.Machine) string {
	t.Helper()
	var buf bytes.Buffer
	argSets := [][]int64{
		{0, 0, 0},
		{1, 2, 3},
		{255, 1023, -7},
		{4096, 12345, 999},
	}
	for _, args := range argSets {
		fp, err := rtl.Flatten(rtl.NewProgram(f))
		if err != nil {
			t.Fatal(err)
		}
		s := sim.NewFlat(fp, m, memBytes)
		s.Fuel = 1 << 22
		for i := range s.Mem {
			s.Mem[i] = byte(i * 7)
		}
		res, err := s.Run("f", args...)
		if err != nil {
			t.Fatalf("args %v: %v\n%s", args, err, f)
		}
		fmt.Fprintf(&buf, "%v->%d;", args, res.Ret)
		buf.Write(s.Mem[:rtlgen.MemWindow])
	}
	return buf.String()
}

// checkFlatPass verifies that pass preserves behaviour on many generated
// programs: each generated function is flattened, transformed, and
// materialized again.
func checkFlatPass(t *testing.T, name string, seeds int, pass func(fp *rtl.FlatProgram, fi int)) {
	t.Helper()
	check(t, name, seeds, func(f *rtl.Fn) *rtl.Fn {
		fp, err := rtl.Flatten(rtl.NewProgram(f))
		if err != nil {
			t.Fatalf("%s: flatten: %v", name, err)
		}
		pass(fp, 0)
		return fp.UnflattenFn(0)
	})
}

// check runs transform on each generated function and requires valid output
// with unchanged behaviour. A transform flattens its input and leaves it
// untouched, so the input is the "before" of a failure report.
func check(t *testing.T, name string, seeds int, transform func(*rtl.Fn) *rtl.Fn) {
	t.Helper()
	m := machine.M68030() // tolerant of any alignment; timing irrelevant here
	for seed := int64(0); seed < int64(seeds); seed++ {
		f := mustGen(t, seed)
		want := behaviour(t, f, m)
		f2 := transform(f)
		if err := f2.Verify(); err != nil {
			t.Fatalf("%s seed %d: invalid output: %v\n%s", name, seed, err, f2)
		}
		got := behaviour(t, f2, m)
		if got != want {
			t.Fatalf("%s seed %d: behaviour changed\n--- before ---\n%s--- after ---\n%s",
				name, seed, f, f2)
		}
	}
}

const seeds = 60

func TestFoldConstantsPreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "FoldConstants", seeds, func(fp *rtl.FlatProgram, fi int) { opt.FlatFoldConstants(fp, fi) })
}

func TestPropagateLocalPreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "PropagateLocal", seeds, func(fp *rtl.FlatProgram, fi int) { opt.FlatPropagateLocal(fp, fi) })
}

func TestPropagateImmutablePreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "PropagateImmutable", seeds, func(fp *rtl.FlatProgram, fi int) { opt.FlatPropagateImmutable(fp, fi) })
}

func TestLocalCSEPreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "LocalCSE", seeds, func(fp *rtl.FlatProgram, fi int) { opt.FlatLocalCSE(fp, fi) })
}

func TestCollapseMovChainsPreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "CollapseMovChains", seeds, func(fp *rtl.FlatProgram, fi int) { opt.FlatCollapseMovChains(fp, fi) })
}

func TestDeadCodeElimPreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "DeadCodeElim", seeds, func(fp *rtl.FlatProgram, fi int) { opt.FlatDeadCodeElim(fp, fi) })
}

func TestEliminateDeadIVsPreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "EliminateDeadIVs", seeds, func(fp *rtl.FlatProgram, fi int) { opt.FlatEliminateDeadIVs(fp, fi) })
}

func TestNormalizeAddressesPreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "NormalizeAddresses", seeds, func(fp *rtl.FlatProgram, fi int) { opt.FlatNormalizeAddresses(fp, fi) })
}

func TestThreadJumpsPreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "ThreadJumps", seeds, func(fp *rtl.FlatProgram, fi int) { opt.FlatThreadJumps(fp, fi) })
}

func TestCleanPreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "Clean", seeds, func(fp *rtl.FlatProgram, fi int) { opt.FlatClean(fp, fi) })
}

func TestHoistInvariantsPreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "HoistInvariants", seeds, hoistAll)
}

func TestSchedulePreservesBehaviour(t *testing.T) {
	for _, m := range machine.All() {
		checkFlatPass(t, "Schedule/"+m.Name, seeds/2, func(fp *rtl.FlatProgram, fi int) {
			sched.ScheduleFlatFn(fp, fi, m)
		})
	}
}

func TestRegallocPreservesBehaviour(t *testing.T) {
	for _, k := range []int{8, 16, 32} {
		checkFlatPass(t, fmt.Sprintf("Regalloc/%d", k), seeds/2, func(fp *rtl.FlatProgram, fi int) {
			if _, err := regalloc.Run(fp, fi, k); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// hoistAll gives every loop of function fi a preheader and hoists its
// invariants.
func hoistAll(fp *rtl.FlatProgram, fi int) {
	g := cfg.NewFlat(fp, fi)
	loops := g.FindLoops()
	for _, l := range loops {
		g.EnsurePreheader(l)
	}
	for _, l := range loops {
		opt.FlatHoistInvariants(fp, fi, l)
	}
}

// TestFullPipelinePreservesBehaviour strings the stages together the way the
// pass manager runs them: clean-up, loop-invariant hoisting, address
// normalization, clean-up again, and scheduling.
func TestFullPipelinePreservesBehaviour(t *testing.T) {
	checkFlatPass(t, "pipeline", seeds, func(fp *rtl.FlatProgram, fi int) {
		opt.FlatClean(fp, fi)
		hoistAll(fp, fi)
		opt.FlatClean(fp, fi)
		opt.FlatNormalizeAddresses(fp, fi)
		opt.FlatClean(fp, fi)
		sched.ScheduleFlatFn(fp, fi, machine.Alpha())
	})
}

func TestGeneratedProgramsParseRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		f := mustGen(t, seed)
		printed := f.String()
		f2, err := rtl.ParseFn(printed)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, printed)
		}
		if got := f2.String(); got != printed {
			t.Fatalf("seed %d: round trip differs\n%s\nvs\n%s", seed, printed, got)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := mustGen(t, 5).String()
	b := mustGen(t, 5).String()
	if a != b {
		t.Error("same seed must generate the same program")
	}
	c := mustGen(t, 6).String()
	if a == c {
		t.Error("different seeds should differ")
	}
}

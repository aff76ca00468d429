package sim_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/sim"
)

// flatOf compiles src under cfg and returns the program's flat image.
func flatOf(t *testing.T, src string, cfg macc.Config) *rtl.FlatProgram {
	t.Helper()
	p, err := macc.Compile(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.Flat
}

// TestDecodePaperKernels holds the decoder to the pointer-graph rules on
// every paper kernel × machine, optimized and unoptimized.
func TestDecodePaperKernels(t *testing.T) {
	for _, m := range machine.All() {
		for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
			for _, cfg := range []macc.Config{macc.DefaultConfig(), macc.BaselineConfig(m)} {
				cfg.Machine = m
				sim.CheckDecode(t, flatOf(t, bm.Src, cfg), m)
			}
		}
	}
}

// TestPredecodeAllocsIndependentOfSize: NewFlat carves the decoded image
// from one slab per kind, held in pooled storage that Release returns, so
// the image kernel and the same kernel with its loop body replicated 4x
// allocate the same number of objects. Each count is the minimum over
// samples: the storage pool may drop a storage (it does so at random under
// the race detector), and a fresh one allocates every slab again.
func TestPredecodeAllocsIndependentOfSize(t *testing.T) {
	kernel := func(copies int) string {
		var body strings.Builder
		for k := 0; k < copies; k++ {
			fmt.Fprintf(&body, "\t\tout[i+%d] = a[i+%d] + b[i+%d];\n", k, k, k)
		}
		return fmt.Sprintf(`
void imageadd(unsigned char *a, unsigned char *b, unsigned char *out, int n) {
	int i;
	for (i = 0; i < n; i += %d) {
%s	}
}
`, copies, body.String())
	}
	m := machine.Alpha()
	cfg := macc.DefaultConfig()
	cfg.Machine = m
	var instrs [2]int
	var allocs [2]float64
	for k, copies := range []int{1, 4} {
		fp := flatOf(t, kernel(copies), cfg)
		for i := range fp.Fns {
			instrs[k] += fp.Fns[i].NumInstrs()
		}
		allocs[k] = math.Inf(1)
		for range 20 {
			allocs[k] = min(allocs[k], testing.AllocsPerRun(1, func() {
				sim.NewFlat(fp, m, 1<<20).Release()
			}))
		}
	}
	if instrs[1] < 2*instrs[0] {
		t.Fatalf("replicated kernel has %d instructions, the kernel %d: not a size test", instrs[1], instrs[0])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("predecode allocates %.0f objects for %d instructions but %.0f for %d",
			allocs[0], instrs[0], allocs[1], instrs[1])
	}
}

package sim_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/sim"
)

// globalsSrc gives the recycled storage a static-data table to carry over.
const globalsSrc = `
short weights[5] = {3, -1, 4, -1, 5};
int scale = 2;

long weighted(short *a, int n) {
	long s = 0;
	int i;
	for (i = 0; i < n; i++)
		s += a[i] * weights[i % 5];
	return s * scale;
}
`

// recycleCase is one program run by TestRecycledSimMatchesFresh: an entry
// point and arguments that keep its loads and stores inside recycleMem.
type recycleCase struct {
	src, entry string
	args       []int64
}

const (
	recycleMem  = 1 << 16
	recycleData = 4096 // inputs are random bytes in [recycleData, 2*recycleData+...)
)

func recycleCases() []recycleCase {
	a, b, c := int64(recycleData), int64(2*recycleData), int64(3*recycleData)
	args := map[string][]int64{
		"convolution": {a, b, 16, 8},
		"imageadd":    {a, b, c, 101},
		"imageadd16":  {a, b, c, 101},
		"imagexor":    {a, b, c, 101},
		"translate":   {a, b, 101, 3},
		"eqntott":     {a, 7, 5},
		"mirror":      {a, b, 101},
		"dotproduct":  {a, b, 101},
	}
	var cases []recycleCase
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		cases = append(cases, recycleCase{bm.Src, bm.Entry, args[bm.Entry]})
	}
	return append(cases, recycleCase{globalsSrc, "weighted", []int64{a, 23}})
}

// simOutcome is everything a run shows: its result with every statistic,
// the whole memory, and the block profile.
type simOutcome struct {
	res     sim.Result
	err     string
	mem     []byte
	profile []sim.BlockProfile
}

func runRecycleCase(s *sim.Sim, c recycleCase) simOutcome {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 3*recycleData)
	rng.Read(data)
	s.WriteBytes(recycleData, data)
	s.EnableProfile()
	res, err := s.Run(c.entry, c.args...)
	out := simOutcome{res: res, mem: s.ReadBytes(0, recycleMem), profile: s.Profile()}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestRecycledSimMatchesFresh: a Sim built on a released storage behaves
// exactly like one built on a fresh storage. The storage first carries a
// larger program on the Alpha (512 I-cache sets), run with profiling so its
// execution counters, tags and dirty memory are all in use; then
// each paper kernel is predecoded into it on every machine. The 68030's 16
// sets shrink the tag arrays, and a copy of the Alpha without a D-cache
// covers a recycled storage whose D-cache tags must not be used. Result
// (return value and all Stats, cache misses included), memory and Profile
// must equal the fresh Sim's.
func TestRecycledSimMatchesFresh(t *testing.T) {
	cases := recycleCases()
	var all []string
	for _, c := range cases {
		all = append(all, c.src)
	}
	alpha := machine.Alpha()
	noDCache := *machine.Alpha()
	noDCache.DCacheBytes = 0
	machines := append(machine.All(), &noDCache)

	compile := func(src string, m *machine.Machine) *macc.Program {
		cfg := macc.DefaultConfig()
		cfg.Machine = m
		p, err := macc.Compile(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	large := compile(strings.Join(all, "\n"), alpha)
	for _, m := range machines {
		for _, c := range cases {
			p := compile(c.src, m)
			fresh := sim.NewFlatFresh(p.Flat, m, recycleMem)
			want := runRecycleCase(fresh, c)
			fresh.Release()

			prev := sim.NewFlat(large.Flat, alpha, recycleMem)
			for _, lc := range cases {
				runRecycleCase(prev, lc)
			}
			s := sim.NewFlatRecycled(prev, p.Flat, m, recycleMem)
			got := runRecycleCase(s, c)
			s.Release()

			at := m.Name + "/" + c.entry
			if want.err != "" || want.res.Instrs == 0 {
				t.Fatalf("%s: the fresh run is no reference: err %q, %d instrs", at, want.err, want.res.Instrs)
			}
			if got.err != want.err {
				t.Errorf("%s: recycled run error %q, fresh %q", at, got.err, want.err)
			}
			if !reflect.DeepEqual(got.res, want.res) {
				t.Errorf("%s: recycled result differs:\ngot  %+v\nwant %+v", at, got.res, want.res)
			}
			if !bytes.Equal(got.mem, want.mem) {
				t.Errorf("%s: recycled memory differs from fresh", at)
			}
			if !reflect.DeepEqual(got.profile, want.profile) {
				t.Errorf("%s: recycled profile differs:\ngot  %v\nwant %v", at, got.profile, want.profile)
			}
		}
	}
}

// TestNewFlatReleaseAllocations pins one NewFlat+Release cycle of two
// paper kernels, convolution and eqntott (which has calls, so its image has
// call and argument slabs): once the pool holds a storage large enough, the
// only allocation is the Sim itself. The minimum over samples ignores the
// pool dropping a storage, which it does at random under the race detector.
func TestNewFlatReleaseAllocations(t *testing.T) {
	m := machine.Alpha()
	cfg := macc.DefaultConfig()
	cfg.Machine = m
	for _, bm := range bench.Benchmarks() {
		if bm.Entry != "convolution" && bm.Entry != "eqntott" {
			continue
		}
		fp := flatOf(t, bm.Src, cfg)
		best := math.Inf(1)
		for range 20 {
			best = min(best, testing.AllocsPerRun(1, func() {
				sim.NewFlat(fp, m, 1<<20).Release()
			}))
		}
		if best != 1 {
			t.Errorf("a NewFlat+Release cycle of %s allocates %.0f objects, want 1 (the Sim)", bm.Entry, best)
		}
	}
}

package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"macc"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/sim"
	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
)

// Workload sizes the benchmark inputs. The paper uses 500x500 frames.
type Workload struct {
	Width  int   `json:"width"`
	Height int   `json:"height"`
	Npt    int   `json:"npt"`   // eqntott: rows
	Nterm  int   `json:"nterm"` // eqntott: row length
	Seed   int64 `json:"seed"`
}

// DefaultWorkload matches the paper's evaluation sizes.
func DefaultWorkload() Workload {
	return Workload{Width: 500, Height: 500, Npt: 60, Nterm: 16, Seed: 1994}
}

// SmallWorkload keeps unit tests fast while exercising every code path:
// the width is machine-word aligned (as the paper's 500-pixel rows are
// longword aligned) but trip counts are deliberately not multiples of the
// unroll factor, so the remainder loops run.
func SmallWorkload() Workload {
	return Workload{Width: 64, Height: 45, Npt: 12, Nterm: 9, Seed: 7}
}

// Cell is one measurement: the dynamic simulator counts plus the static
// coalescer decisions, the latter sourced from the telemetry metrics
// registry of the compile that produced the cell.
type Cell struct {
	Cycles         int64 `json:"cycles"`
	MemRefs        int64 `json:"mem_refs"`
	LoopsCoalesced int64 `json:"loops_coalesced"`
	WideLoads      int64 `json:"wide_loads"`
	WideStores     int64 `json:"wide_stores"`
	NarrowElim     int64 `json:"narrow_refs_eliminated"`
	CheckInstrs    int64 `json:"check_instrs"`
}

// Row is one line of a paper table.
type Row struct {
	Name        string
	Native      Cell // cc -O stand-in
	Vpo         Cell // vpcc/vpo -O (unrolled, scheduled, no coalescing)
	Loads       Cell // + coalesce loads
	LoadsStores Cell // + coalesce loads and stores
	// Err, when non-nil, marks the row as failed: one of the benchmark's
	// configurations did not compile or did not validate against the Go
	// reference. The other rows of the table are still measured.
	Err error
}

// SavingsLoads is the percent cycle saving of load coalescing over the vpo
// baseline, the paper's Table II/III "Percent Savings" with column 4.
func (r Row) SavingsLoads() float64 { return pct(r.Vpo.Cycles, r.Loads.Cycles) }

// SavingsBoth is the percent saving with loads and stores coalesced.
func (r Row) SavingsBoth() float64 { return pct(r.Vpo.Cycles, r.LoadsStores.Cycles) }

// MemRefSavings is the reduction in executed memory references.
func (r Row) MemRefSavings() float64 { return pct(r.Vpo.MemRefs, r.LoadsStores.MemRefs) }

func pct(base, new int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-new) / float64(base)
}

// Benchmark is one Table I entry.
type Benchmark struct {
	Name     string
	PaperLoC int // lines of code reported in Table I
	Src      string
	Entry    string
	// Run lays out memory, executes the entry point, and verifies the
	// result against the Go reference.
	Run func(p *macc.Program, wl Workload) (sim.Result, error)
}

const memBytes = 1 << 22

func align8(x int64) int64 { return (x + 7) &^ 7 }

func frames(wl Workload, count int, elem int64) []int64 {
	size := align8(int64(wl.Width*wl.Height) * elem)
	addrs := make([]int64, count)
	base := int64(4096)
	for i := range addrs {
		addrs[i] = base
		base += size
	}
	return addrs
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// Benchmarks returns the paper's benchmark suite (Table I) plus the
// Figure 1 dot product.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{
			Name: "Convolution", PaperLoC: 154, Src: ConvolutionSrc, Entry: "convolution",
			Run: func(p *macc.Program, wl Workload) (sim.Result, error) {
				rng := rand.New(rand.NewSource(wl.Seed))
				// Image rows are padded to a quadword stride, as image
				// libraries allocate frames; the kernel's width parameter
				// is the stride.
				stride := (wl.Width + 7) &^ 7
				n := stride * wl.Height
				src := randBytes(rng, n)
				addrs := []int64{4096, 4096 + align8(int64(n))}
				s := p.NewSim(memBytes)
				defer s.Release()
				s.WriteBytes(addrs[0], src)
				res, err := s.Run("convolution", addrs[0], addrs[1], int64(stride), int64(wl.Height))
				if err != nil {
					return res, err
				}
				want := RefConvolution(src, stride, wl.Height)
				got := s.ReadBytes(addrs[1], n)
				if !bytes.Equal(got, want) {
					return res, fmt.Errorf("convolution output mismatch")
				}
				return res, nil
			},
		},
		{
			Name: "Image add", PaperLoC: 48, Src: ImageAddSrc, Entry: "imageadd",
			Run: func(p *macc.Program, wl Workload) (sim.Result, error) {
				rng := rand.New(rand.NewSource(wl.Seed))
				n := wl.Width * wl.Height
				a, b := randBytes(rng, n), randBytes(rng, n)
				addrs := frames(wl, 3, 1)
				s := p.NewSim(memBytes)
				defer s.Release()
				s.WriteBytes(addrs[0], a)
				s.WriteBytes(addrs[1], b)
				res, err := s.Run("imageadd", addrs[0], addrs[1], addrs[2], int64(n))
				if err != nil {
					return res, err
				}
				if !bytes.Equal(s.ReadBytes(addrs[2], n), RefImageAdd(a, b)) {
					return res, fmt.Errorf("imageadd output mismatch")
				}
				return res, nil
			},
		},
		{
			Name: "Image add (16-bit)", PaperLoC: 48, Src: ImageAdd16Src, Entry: "imageadd16",
			Run: func(p *macc.Program, wl Workload) (sim.Result, error) {
				rng := rand.New(rand.NewSource(wl.Seed))
				n := wl.Width * wl.Height
				a := make([]uint16, n)
				b := make([]uint16, n)
				av := make([]int64, n)
				bv := make([]int64, n)
				for i := 0; i < n; i++ {
					a[i] = uint16(rng.Intn(1 << 16))
					b[i] = uint16(rng.Intn(1 << 16))
					av[i], bv[i] = int64(a[i]), int64(b[i])
				}
				addrs := frames(wl, 3, 2)
				s := p.NewSim(memBytes)
				defer s.Release()
				s.WriteInts(addrs[0], rtl.W2, av)
				s.WriteInts(addrs[1], rtl.W2, bv)
				res, err := s.Run("imageadd16", addrs[0], addrs[1], addrs[2], int64(n))
				if err != nil {
					return res, err
				}
				want := RefImageAdd16(a, b)
				got := s.ReadInts(addrs[2], rtl.W2, n, false)
				for i := range want {
					if got[i] != int64(want[i]) {
						return res, fmt.Errorf("imageadd16 mismatch at %d", i)
					}
				}
				return res, nil
			},
		},
		{
			Name: "Image xor", PaperLoC: 48, Src: ImageXorSrc, Entry: "imagexor",
			Run: func(p *macc.Program, wl Workload) (sim.Result, error) {
				rng := rand.New(rand.NewSource(wl.Seed))
				n := wl.Width * wl.Height
				a, b := randBytes(rng, n), randBytes(rng, n)
				addrs := frames(wl, 3, 1)
				s := p.NewSim(memBytes)
				defer s.Release()
				s.WriteBytes(addrs[0], a)
				s.WriteBytes(addrs[1], b)
				res, err := s.Run("imagexor", addrs[0], addrs[1], addrs[2], int64(n))
				if err != nil {
					return res, err
				}
				if !bytes.Equal(s.ReadBytes(addrs[2], n), RefImageXor(a, b)) {
					return res, fmt.Errorf("imagexor output mismatch")
				}
				return res, nil
			},
		},
		{
			Name: "Translate", PaperLoC: 48, Src: TranslateSrc, Entry: "translate",
			Run: func(p *macc.Program, wl Workload) (sim.Result, error) {
				rng := rand.New(rand.NewSource(wl.Seed))
				n := wl.Width * wl.Height
				src := randBytes(rng, n)
				addrs := frames(wl, 3, 1)       // dst frame is double-size below
				offset := int64(wl.Width/2) * 8 // 8-aligned so coalescing survives
				s := p.NewSim(memBytes)
				defer s.Release()
				s.WriteBytes(addrs[0], src)
				res, err := s.Run("translate", addrs[0], addrs[1], int64(n), offset)
				if err != nil {
					return res, err
				}
				want := make([]byte, n+int(offset))
				RefTranslate(src, want, int(offset))
				got := s.ReadBytes(addrs[1], n+int(offset))
				if !bytes.Equal(got, want) {
					return res, fmt.Errorf("translate output mismatch")
				}
				return res, nil
			},
		},
		{
			Name: "Eqntott", PaperLoC: 146, Src: EqntottSrc, Entry: "eqntott",
			Run: func(p *macc.Program, wl Workload) (sim.Result, error) {
				rng := rand.New(rand.NewSource(wl.Seed))
				n := wl.Npt * wl.Nterm
				pts := make([]int16, n)
				vals := make([]int64, n)
				for i := range pts {
					// Low cardinality so many rows tie for long prefixes,
					// as eqntott's sorted bit vectors do.
					pts[i] = int16(rng.Intn(3))
					vals[i] = int64(pts[i])
				}
				addr := int64(4096)
				s := p.NewSim(memBytes)
				defer s.Release()
				s.WriteInts(addr, rtl.W2, vals)
				res, err := s.Run("eqntott", addr, int64(wl.Npt), int64(wl.Nterm))
				if err != nil {
					return res, err
				}
				if want := RefEqntott(pts, wl.Npt, wl.Nterm); res.Ret != want {
					return res, fmt.Errorf("eqntott: got %d, want %d", res.Ret, want)
				}
				return res, nil
			},
		},
		{
			Name: "Mirror", PaperLoC: 50, Src: MirrorSrc, Entry: "mirror",
			Run: func(p *macc.Program, wl Workload) (sim.Result, error) {
				rng := rand.New(rand.NewSource(wl.Seed))
				n := wl.Width * wl.Height
				src := randBytes(rng, n)
				addrs := frames(wl, 2, 1)
				s := p.NewSim(memBytes)
				defer s.Release()
				s.WriteBytes(addrs[0], src)
				res, err := s.Run("mirror", addrs[0], addrs[1], int64(n))
				if err != nil {
					return res, err
				}
				if !bytes.Equal(s.ReadBytes(addrs[1], n), RefMirror(src)) {
					return res, fmt.Errorf("mirror output mismatch")
				}
				return res, nil
			},
		},
	}
}

// DotProduct returns the Figure 1 benchmark (not part of Table II but used
// by the examples and the motivation figure).
func DotProduct() Benchmark {
	return Benchmark{
		Name: "Dot product", Src: DotProductSrc, Entry: "dotproduct",
		Run: func(p *macc.Program, wl Workload) (sim.Result, error) {
			rng := rand.New(rand.NewSource(wl.Seed))
			n := wl.Width * wl.Height
			a := make([]int16, n)
			b := make([]int16, n)
			av := make([]int64, n)
			bv := make([]int64, n)
			for i := 0; i < n; i++ {
				a[i] = int16(rng.Intn(1<<16) - 1<<15)
				b[i] = int16(rng.Intn(1<<16) - 1<<15)
				av[i], bv[i] = int64(a[i]), int64(b[i])
			}
			addrs := frames(wl, 2, 2)
			s := p.NewSim(memBytes)
			defer s.Release()
			s.WriteInts(addrs[0], rtl.W2, av)
			s.WriteInts(addrs[1], rtl.W2, bv)
			res, err := s.Run("dotproduct", addrs[0], addrs[1], int64(n))
			if err != nil {
				return res, err
			}
			if want := RefDotProduct(a, b); res.Ret != want {
				return res, fmt.Errorf("dotproduct: got %d, want %d", res.Ret, want)
			}
			return res, nil
		},
	}
}

// Configs returns the four compiler configurations of the paper's tables
// for machine m, in column order.
func Configs(m *machine.Machine) []macc.Config {
	loads := macc.BaselineConfig(m)
	loads.Coalesce = core.Options{Loads: true}
	both := macc.BaselineConfig(m)
	both.Coalesce = core.Options{Loads: true, Stores: true}
	return []macc.Config{
		macc.NativeConfig(m),
		macc.BaselineConfig(m),
		loads,
		both,
	}
}

// Measure runs one benchmark under one configuration. Each measurement
// compiles with its own telemetry recorder so the cell carries the static
// coalescer counters alongside the dynamic cycle counts, and so failure
// messages can summarize what the coalescer decided.
func Measure(b Benchmark, cfgc macc.Config, wl Workload) (Cell, error) {
	return MeasureTraced(b, cfgc, wl, telemetry.NewRecorder())
}

// MeasureTraced is Measure with a caller-supplied recorder, so a harness
// can harvest the compile's per-pass spans afterwards (the parallel table
// runner merges them into one worker-attributed Chrome trace).
func MeasureTraced(b Benchmark, cfgc macc.Config, wl Workload, rec *telemetry.Recorder) (Cell, error) {
	cfgc.Telemetry = rec
	p, err := macc.Compile(b.Src, cfgc)
	if err != nil {
		return Cell{}, fmt.Errorf("%s: compile: %w", b.Name, err)
	}
	if p.Diagnostics.Degraded() {
		// A degraded compile is still correct but no longer measures the
		// configuration it claims to; surface it as a row diagnostic.
		return Cell{}, fmt.Errorf("%s: compile degraded: %s (coalesce: %s)",
			b.Name, strings.Join(p.Diagnostics.FailedPasses(), ", "),
			telemetry.Summarize(rec.Remarks(), "coalesce"))
	}
	res, err := b.Run(p, wl)
	if err != nil {
		return Cell{}, fmt.Errorf("%s: %w (coalesce: %s)", b.Name, err,
			telemetry.Summarize(rec.Remarks(), "coalesce"))
	}
	reg := rec.Metrics()
	return Cell{
		Cycles:         res.Cycles,
		MemRefs:        res.MemRefs(),
		LoopsCoalesced: reg.CounterValue("coalesce.loops_coalesced"),
		WideLoads:      reg.CounterValue("coalesce.wide_loads"),
		WideStores:     reg.CounterValue("coalesce.wide_stores"),
		NarrowElim: reg.CounterValue("coalesce.narrow_loads_eliminated") +
			reg.CounterValue("coalesce.narrow_stores_eliminated"),
		CheckInstrs: reg.CounterValue("coalesce.check_instrs"),
	}, nil
}

// TableOptions configures RunTableOpts.
type TableOptions struct {
	// Jobs bounds the worker pool measuring table cells. Zero or negative
	// means GOMAXPROCS. Jobs == 1 is the serial schedule; any other value
	// produces byte-identical rows, remarks, and artifacts — the assembly
	// step reconstructs the serial first-failure semantics from the full
	// cell matrix.
	Jobs int
	// Registry, when non-nil, receives the harness's own telemetry (cells
	// measured, cell failures, per-cell wall time). Workers write to private
	// registries that are merged here at the pool barrier, so the hot path
	// never contends on shared counters.
	Registry *telemetry.Registry
	// Trace, when non-nil, receives the merged per-pass Chrome trace of
	// every cell compile. Each worker's spans are stamped with its worker
	// ID, so a -j run renders one process row per worker instead of all
	// workers interleaving on one timeline.
	Trace io.Writer
}

// columnNames are the table's configuration columns, in Configs order.
var columnNames = []string{"native", "vpo", "loads", "loads+stores"}

// RunTable produces the paper-table rows for machine m. A benchmark whose
// compile or reference validation fails does not abort the table: its row
// carries the error (Row.Err) and the remaining rows are still measured.
// The returned error is reserved for harness-level failures and is
// currently always nil. Cells are measured by a GOMAXPROCS-wide worker
// pool; use RunTableOpts to choose the width.
func RunTable(m *machine.Machine, wl Workload) ([]Row, error) {
	return RunTableOpts(m, wl, TableOptions{})
}

// RunTableOpts is RunTable with an explicit worker-pool width and telemetry
// sink.
func RunTableOpts(m *machine.Machine, wl Workload, opts TableOptions) ([]Row, error) {
	return runTable(Benchmarks(), Configs(m), wl, opts)
}

// cellResult is one measured (benchmark, config) cell.
type cellResult struct {
	cell Cell
	err  error
}

// measureCell runs one Measure under panic isolation: a panicking
// configuration (a miscompiled kernel tripping a harness invariant, say)
// degrades only its row, exactly like a returned error.
func measureCell(b Benchmark, cfgc macc.Config, wl Workload, rec *telemetry.Recorder) (cell Cell, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", b.Name, r)
		}
	}()
	return MeasureTraced(b, cfgc, wl, rec)
}

// runTable fans the (benchmark, configuration) cell matrix out over a
// bounded worker pool, then assembles rows with the serial schedule's
// semantics: a row reports the failure of its lowest-index failing
// configuration and zeroes every cell from that configuration on, so the
// output is byte-identical to a one-worker run regardless of pool width or
// completion order.
func runTable(benches []Benchmark, cfgs []macc.Config, wl Workload, opts TableOptions) ([]Row, error) {
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if n := len(benches) * len(cfgs); jobs > n {
		jobs = n
	}

	results := make([][]cellResult, len(benches))
	for i := range results {
		results[i] = make([]cellResult, len(cfgs))
	}

	type task struct{ bi, ci int }
	taskc := make(chan task)
	regs := make([]*telemetry.Registry, jobs)
	workerSpans := make([][]dtrace.Span, jobs)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		reg := telemetry.NewRegistry()
		regs[w] = reg
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			service := "worker " + strconv.Itoa(worker+1) // its process row in the trace
			for t := range taskc {
				start := time.Now()
				rec := telemetry.NewRecorder()
				cell, err := measureCell(benches[t.bi], cfgs[t.ci], wl, rec)
				results[t.bi][t.ci] = cellResult{cell: cell, err: err}
				reg.Counter("bench.cells_measured").Add(1)
				if err != nil {
					reg.Counter("bench.cell_failures").Add(1)
				}
				reg.Histogram("bench.cell_wall_ns").Observe(time.Since(start).Nanoseconds())
				if opts.Trace != nil {
					for _, sp := range rec.Spans() {
						sp.Service = service
						workerSpans[worker] = append(workerSpans[worker], sp)
					}
				}
			}
		}(w)
	}
	for bi := range benches {
		for ci := range cfgs {
			taskc <- task{bi, ci}
		}
	}
	close(taskc)
	wg.Wait() // barrier: every cell measured, worker registries quiescent

	if opts.Registry != nil {
		for _, reg := range regs {
			opts.Registry.Merge(reg)
		}
	}
	if opts.Trace != nil {
		var all []dtrace.Span
		for _, ws := range workerSpans {
			all = append(all, ws...)
		}
		if err := dtrace.WriteChromeTrace(opts.Trace, all); err != nil {
			return nil, fmt.Errorf("bench: write trace: %w", err)
		}
	}

	rows := make([]Row, 0, len(benches))
	for bi, b := range benches {
		row := Row{Name: b.Name}
		cells := []*Cell{&row.Native, &row.Vpo, &row.Loads, &row.LoadsStores}
		for ci := range cfgs {
			r := results[bi][ci]
			if r.err != nil {
				// Serial semantics: the first failing configuration defines
				// the row error; later cells stay zero as if never measured.
				row.Err = fmt.Errorf("config %q: %w", columnNames[ci], r.err)
				break
			}
			*cells[ci] = r.cell
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable renders rows the way the paper prints Tables II and III. The
// trailing "elim" column is the number of narrow references the coalescer
// statically eliminated in the loads+stores configuration, sourced from the
// telemetry registry of that compile.
func FormatTable(title string, rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-20s %12s %12s %12s %12s %9s %9s %8s %6s\n",
		"Program", "native", "vpo", "loads", "loads+st", "sav(ld)%", "sav(l+s)%", "refs-%", "elim")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-20s FAILED: %v\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-20s %12d %12d %12d %12d %9.2f %9.2f %8.2f %6d\n",
			r.Name, r.Native.Cycles, r.Vpo.Cycles, r.Loads.Cycles, r.LoadsStores.Cycles,
			r.SavingsLoads(), r.SavingsBoth(), r.MemRefSavings(), r.LoadsStores.NarrowElim)
	}
	return sb.String()
}

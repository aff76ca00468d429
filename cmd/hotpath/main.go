// Command hotpath measures the compiler's hot paths — the bench harness's
// table measurement, the simulator core and its predecode, the warm-vs-cold
// compile cache, and the flat-IR codec — and writes the results as a
// machine-readable artifact (BENCH_hotpath.json). CI regenerates the
// artifact on every run and gates on -check against the committed baseline:
// a ratio metric or a cache tier's warm-hit cost that regresses by more
// than 25% fails the build.
//
//	hotpath -out BENCH_hotpath.json          regenerate the artifact
//	hotpath -out new.json -check BENCH_hotpath.json
//
// Timing is gated through ratio metrics (the parallel-vs-serial table
// speedup, simulated MIPS, and the codec decode-vs-reparse speedup) and
// through the aggregate warm ns/op of the memory and the disk cache tier,
// which may not grow by more than 25%. Warm-hit cost is gated on its own,
// not as a cold/warm speedup, so a faster cold compile never reads as a
// cache regression. Every other raw ns/op number — including each kernel's
// cold compile, the absolute cold-compile trajectory — is recorded for
// trend plots but never compared. Allocation counts are exact for a
// deterministic compile, so each kernel's cold-compile allocs/op and
// predecode allocs/op are gated directly: neither may exceed the baseline's
// whenever both artifacts were built with the same Go version, on any
// host. Two metrics additionally have absolute floors: a warm memory-tier
// hit must be at least 5x faster than a cold compile, and decoding a
// kernel's binary flat-IR image must be at least 5x faster than reparsing
// its printed text — the property that justifies the binary disk tier —
// regardless of the baseline. Each
// artifact carries a provenance block (git commit, Go version, OS/arch, CPU
// count); when the baseline's host identity differs from the current
// host's, relative and same-host gates are skipped and only the absolute
// floors apply. The parallel-scaling gate requires at least four
// CPUs on both the current and the baseline host, since a single-core
// runner cannot demonstrate pool scaling; -check warns loudly
// when the committed baseline was produced on a single-CPU host, because
// that renders the scaling gate permanently vacuous.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/ccache"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
)

// Schema versions the artifact layout. v2 added the compile-cache
// section; v3 added the provenance block and host-aware gating; v4 split
// the cache section into warm-mem and warm-disk hits and added the binary
// codec encode/decode/reparse section; v5 added the cold_flat section
// (graph-pipeline vs flat-pipeline cold compiles) and allocs/op on every
// cold-compile row; v6 dropped the snapshot and cold_flat sections with the
// pointer-graph pass pipeline they measured. The predecode section was
// added to v6 without a bump: a v6 artifact that lacks it has no predecode
// rows to gate.
const Schema = "macc-hotpath/v6"

// RunTableEntry is the bench harness's wall time for the full small-workload
// table, serial vs a GOMAXPROCS-wide pool.
type RunTableEntry struct {
	SerialNsPerOp   float64 `json:"serial_ns_per_op"`
	ParallelNsPerOp float64 `json:"parallel_ns_per_op"`
	Jobs            int     `json:"jobs"`
	Speedup         float64 `json:"speedup"`
}

// SimEntry is the predecoded interpreter's raw rate on the dot-product
// kernel.
type SimEntry struct {
	NsPerRun      float64 `json:"ns_per_run"`
	InstrsPerRun  int64   `json:"instrs_per_run"`
	SimulatedMIPS float64 `json:"simulated_mips"`
}

// PredecodeEntry is one paper kernel's cost to become runnable once its
// compile is in hand: prog.NewSim(1 MiB) predecodes the flat image into a
// simulator, and Release returns its storage (memory arena, cache tags,
// decoded image) to the pool — what every cache hit that is run pays on top
// of the hit itself.
type PredecodeEntry struct {
	Kernel      string  `json:"kernel"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// CacheEntry is one paper kernel's cold-vs-warm compile cost: a full
// front-end + pipeline compile vs a cache hit on the same source and
// configuration. The Cache section measures memory-tier hits (shared flat
// image, no decode); the WarmDisk section measures disk-tier hits (file
// read + checksum + binary decode + materialize) with the memory tier
// disabled.
type CacheEntry struct {
	Kernel          string  `json:"kernel"`
	ColdNsPerOp     float64 `json:"cold_ns_per_op"`
	ColdAllocsPerOp float64 `json:"cold_allocs_per_op"`
	WarmNsPerOp     float64 `json:"warm_ns_per_op"`
	Speedup         float64 `json:"speedup"`
}

// CodecEntry is one paper kernel's flat-IR codec cost: encoding the flat
// image, decoding it back (checksum + structural validation), and — the
// baseline the binary disk tier replaced — reparsing the same program from
// printed RTL text.
type CodecEntry struct {
	Kernel         string  `json:"kernel"`
	EncodeNsPerOp  float64 `json:"encode_ns_per_op"`
	DecodeNsPerOp  float64 `json:"decode_ns_per_op"`
	ReparseNsPerOp float64 `json:"reparse_ns_per_op"`
	Bytes          int     `json:"bytes"`
	TextBytes      int     `json:"text_bytes"`
	DecodeSpeedup  float64 `json:"decode_speedup"`
}

// Artifact is the BENCH_hotpath.json layout.
type Artifact struct {
	Schema             string           `json:"schema"`
	Provenance         bench.Provenance `json:"provenance"`
	CPUs               int              `json:"cpus"`
	RunTable           RunTableEntry    `json:"runtable"`
	Sim                SimEntry         `json:"sim"`
	Predecode          []PredecodeEntry `json:"predecode"`
	Cache              []CacheEntry     `json:"cache"`
	CacheSpeedup       float64          `json:"cache_speedup"`
	WarmDisk           []CacheEntry     `json:"warm_disk"`
	WarmDiskSpeedup    float64          `json:"warm_disk_speedup"`
	Codec              []CodecEntry     `json:"codec"`
	CodecDecodeSpeedup float64          `json:"codec_decode_speedup"`
}

// cacheSpeedupFloor is the absolute acceptance floor: a warm memory-tier
// compile must beat a cold compile by at least this factor in aggregate.
const cacheSpeedupFloor = 5.0

// codecDecodeSpeedupFloor is the absolute acceptance floor for the binary
// disk tier's reason to exist: decoding a kernel's flat-IR image must beat
// reparsing its printed RTL text by at least this factor in aggregate.
const codecDecodeSpeedupFloor = 5.0

// parallelSpeedupFloor is the absolute acceptance floor for the parallel
// run-table benchmark when no multi-core baseline exists: on a host with
// >= 4 CPUs, running the table in parallel must beat serial by at least
// this factor regardless of what the baseline host could measure.
const parallelSpeedupFloor = 1.15

func main() {
	out := flag.String("out", "BENCH_hotpath.json", "write the artifact to this path (\"-\" for stdout)")
	checkPath := flag.String("check", "", "compare against this baseline artifact and fail on a >25% ratio or warm-hit cost regression or any per-kernel cold-compile or predecode allocs/op increase")
	flag.Parse()

	a, err := measure()
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		fatal(err)
	}

	if *checkPath != "" {
		base, err := readArtifact(*checkPath)
		if err != nil {
			fatal(err)
		}
		if err := check(a, base); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "hotpath: no regression vs", *checkPath)
	}
}

func measure() (Artifact, error) {
	a := Artifact{Schema: Schema, Provenance: bench.NewProvenance(Schema), CPUs: runtime.NumCPU()}
	m := machine.Alpha()

	wl := bench.SmallWorkload()
	runTable := func(jobs int) (float64, error) {
		var rerr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.RunTableOpts(m, wl, bench.TableOptions{Jobs: jobs})
				if err != nil {
					rerr = err
					b.FailNow()
				}
				for _, row := range rows {
					if row.Err != nil {
						rerr = row.Err
						b.FailNow()
					}
				}
			}
		})
		return nsPerOp(r), rerr
	}
	serial, err := runTable(1)
	if err != nil {
		return a, err
	}
	jobs := runtime.GOMAXPROCS(0)
	parallel, err := runTable(jobs)
	if err != nil {
		return a, err
	}
	a.RunTable = RunTableEntry{SerialNsPerOp: serial, ParallelNsPerOp: parallel, Jobs: jobs}
	if parallel > 0 {
		a.RunTable.Speedup = serial / parallel
	}

	step, instrs, release, err := bench.SimStepper(m, wl)
	if err != nil {
		return a, err
	}
	defer release()
	var serr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := step(); err != nil {
				serr = err
				b.FailNow()
			}
		}
	})
	if serr != nil {
		return a, serr
	}
	a.Sim = SimEntry{NsPerRun: nsPerOp(r), InstrsPerRun: instrs}
	if ns := a.Sim.NsPerRun; ns > 0 {
		a.Sim.SimulatedMIPS = float64(instrs) / ns * 1e3 // instrs/ns -> MIPS
	}

	if err := measurePredecode(&a, m); err != nil {
		return a, err
	}
	if err := measureCache(&a, m); err != nil {
		return a, err
	}
	if err := measureWarmDisk(&a, m); err != nil {
		return a, err
	}
	if err := measureCodec(&a, m); err != nil {
		return a, err
	}
	return a, nil
}

// allocSamples is how many single-call allocation counts minAllocs takes
// the minimum of.
const allocSamples = 40

// predecodeMem is the simulator memory each predecode row allocates, the
// size cmd/benchmark's cache-zipf ops use.
const predecodeMem = 1 << 20

// measureCold measures one cold compile configuration: its ns/op and its
// allocation count.
func measureCold(src string, cfg macc.Config) (nsOp, allocs float64, err error) {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err = macc.Compile(src, cfg); err != nil {
				b.FailNow()
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	allocs, err = coldAllocs(src, cfg)
	return nsPerOp(r), allocs, err
}

// coldAllocs counts the objects one cold compile of src allocates.
func coldAllocs(src string, cfg macc.Config) (float64, error) {
	return minAllocs(func() error {
		_, err := macc.Compile(src, cfg)
		return err
	})
}

// predecodeAllocs counts the objects one predecode of p allocates.
func predecodeAllocs(p *macc.Program) float64 {
	n, _ := minAllocs(func() error { // a predecode cannot fail
		p.NewSim(predecodeMem).Release()
		return nil
	})
	return n
}

// minAllocs counts the objects one call of f allocates: one warm-up call,
// then the minimum over allocSamples runs of testing.AllocsPerRun. A
// compile's output never varies, but two things can put a single sample a
// few objects high: the runtime seeds every map's hash at random, so how
// the compile's maps grow varies, and a garbage collection empties the
// pools of pass and simulator storage (the scheduler's scratch, the
// cleaner, the pass manager's snapshots, the simulator's storage), so the
// next call regrows what it draws.
// The minimum does not move.
func minAllocs(f func() error) (float64, error) {
	var err error
	call := func() {
		if ferr := f(); ferr != nil {
			err = ferr
		}
	}
	call()
	best := math.Inf(1)
	for i := 0; i < allocSamples && err == nil; i++ {
		best = min(best, testing.AllocsPerRun(1, call))
	}
	return best, err
}

// measurePredecode benchmarks predecoding every paper kernel's optimized
// compile into a simulator and releasing it.
func measurePredecode(a *Artifact, m *machine.Machine) error {
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		cfg := macc.DefaultConfig()
		cfg.Machine = m
		p, err := macc.Compile(bm.Src, cfg)
		if err != nil {
			return fmt.Errorf("%s: compile: %v", bm.Name, err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.NewSim(predecodeMem).Release()
			}
		})
		a.Predecode = append(a.Predecode, PredecodeEntry{
			Kernel:      bm.Entry,
			NsPerOp:     nsPerOp(r),
			AllocsPerOp: predecodeAllocs(p),
		})
	}
	return nil
}

// measureCache benchmarks a cold compile against a warm memory-tier hit
// for every paper kernel under the default optimizing configuration.
func measureCache(a *Artifact, m *machine.Machine) error {
	var coldTotal, warmTotal float64
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		cold := macc.DefaultConfig()
		cold.Machine = m
		coldNs, coldAllocs, cerr := measureCold(bm.Src, cold)
		if cerr != nil {
			return fmt.Errorf("%s: cold compile: %v", bm.Name, cerr)
		}

		warm := cold
		warm.Cache = ccache.New(ccache.Options{})
		if _, err := macc.Compile(bm.Src, warm); err != nil {
			return fmt.Errorf("%s: cache warmup: %v", bm.Name, err)
		}
		var werr error
		warmR := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := macc.Compile(bm.Src, warm)
				if err != nil {
					werr = err
					b.FailNow()
				}
				if !p.Cached {
					werr = fmt.Errorf("warm compile missed the cache")
					b.FailNow()
				}
			}
		})
		if werr != nil {
			return fmt.Errorf("%s: warm compile: %v", bm.Name, werr)
		}

		e := CacheEntry{
			Kernel:          bm.Entry,
			ColdNsPerOp:     coldNs,
			ColdAllocsPerOp: coldAllocs,
			WarmNsPerOp:     nsPerOp(warmR),
		}
		if e.WarmNsPerOp > 0 {
			e.Speedup = e.ColdNsPerOp / e.WarmNsPerOp
		}
		coldTotal += e.ColdNsPerOp
		warmTotal += e.WarmNsPerOp
		a.Cache = append(a.Cache, e)
	}
	if warmTotal > 0 {
		a.CacheSpeedup = coldTotal / warmTotal
	}
	return nil
}

// measureWarmDisk benchmarks a cold compile against a disk-tier hit for
// every paper kernel: the memory tier is disabled (negative budget), so
// every warm compile pays the full file read, checksum verification, binary
// decode, and pointer-graph materialization.
func measureWarmDisk(a *Artifact, m *machine.Machine) error {
	var coldTotal, warmTotal float64
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		dir, err := os.MkdirTemp("", "hotpath-disk-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)

		cfg := macc.DefaultConfig()
		cfg.Machine = m
		coldNs, coldAllocs, cerr := measureCold(bm.Src, cfg)
		if cerr != nil {
			return fmt.Errorf("%s: cold compile: %v", bm.Name, cerr)
		}

		warm := cfg
		warm.Cache = ccache.New(ccache.Options{Dir: dir, MemBudget: -1})
		if _, err := macc.Compile(bm.Src, warm); err != nil {
			return fmt.Errorf("%s: disk warmup: %v", bm.Name, err)
		}
		var werr error
		warmR := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := macc.Compile(bm.Src, warm)
				if err != nil {
					werr = err
					b.FailNow()
				}
				if !p.Cached {
					werr = fmt.Errorf("warm compile missed the disk tier")
					b.FailNow()
				}
			}
		})
		if werr != nil {
			return fmt.Errorf("%s: warm disk compile: %v", bm.Name, werr)
		}

		e := CacheEntry{
			Kernel:          bm.Entry,
			ColdNsPerOp:     coldNs,
			ColdAllocsPerOp: coldAllocs,
			WarmNsPerOp:     nsPerOp(warmR),
		}
		if e.WarmNsPerOp > 0 {
			e.Speedup = e.ColdNsPerOp / e.WarmNsPerOp
		}
		coldTotal += e.ColdNsPerOp
		warmTotal += e.WarmNsPerOp
		a.WarmDisk = append(a.WarmDisk, e)
	}
	if warmTotal > 0 {
		a.WarmDiskSpeedup = coldTotal / warmTotal
	}
	return nil
}

// measureCodec benchmarks the flat-IR codec on every paper kernel's
// optimized program: encode, decode (checksum + structural validation), and
// the text-reparse baseline the binary disk tier replaced.
func measureCodec(a *Artifact, m *machine.Machine) error {
	var decodeTotal, reparseTotal float64
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		cfg := macc.DefaultConfig()
		cfg.Machine = m
		p, err := macc.Compile(bm.Src, cfg)
		if err != nil {
			return fmt.Errorf("%s: compile: %v", bm.Name, err)
		}
		fp := p.Flat
		enc := codec.EncodeProgram(fp)
		text := p.RTL.String()

		encR := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				codec.EncodeProgram(fp)
			}
		})
		var derr error
		decR := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := codec.DecodeProgram(enc); err != nil {
					derr = err
					b.FailNow()
				}
			}
		})
		if derr != nil {
			return fmt.Errorf("%s: decode: %v", bm.Name, derr)
		}
		var perr error
		parR := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rtl.ParseProgram(text); err != nil {
					perr = err
					b.FailNow()
				}
			}
		})
		if perr != nil {
			return fmt.Errorf("%s: reparse: %v", bm.Name, perr)
		}

		e := CodecEntry{
			Kernel:         bm.Entry,
			EncodeNsPerOp:  nsPerOp(encR),
			DecodeNsPerOp:  nsPerOp(decR),
			ReparseNsPerOp: nsPerOp(parR),
			Bytes:          len(enc),
			TextBytes:      len(text),
		}
		if e.DecodeNsPerOp > 0 {
			e.DecodeSpeedup = e.ReparseNsPerOp / e.DecodeNsPerOp
		}
		decodeTotal += e.DecodeNsPerOp
		reparseTotal += e.ReparseNsPerOp
		a.Codec = append(a.Codec, e)
	}
	if decodeTotal > 0 {
		a.CodecDecodeSpeedup = reparseTotal / decodeTotal
	}
	return nil
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N <= 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func readArtifact(path string) (Artifact, error) {
	var a Artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("%s: %v", path, err)
	}
	if a.Schema != Schema {
		return a, fmt.Errorf("%s: schema %q, want %q", path, a.Schema, Schema)
	}
	return a, nil
}

// check fails when a gated ratio metric regressed by more than 25% against
// the baseline, or a cache tier's aggregate warm ns/op grew by more than
// 25%. Relative comparisons are only trusted when both artifacts carry the
// same host identity (the provenance block): timings from a different
// machine, Go version, or CPU count are not a regression signal, so a host
// mismatch downgrades the check to absolute floors only.
func check(cur, base Artifact) error {
	sameHost := cur.Provenance.SameHost(base.Provenance)
	if !sameHost {
		fmt.Fprintf(os.Stderr,
			"hotpath: baseline host differs (%s vs %s): relative gates skipped, absolute floors still apply\n",
			base.Provenance.Host(), cur.Provenance.Host())
	}
	var failures []string
	gate := func(name string, curV, baseV float64) {
		if !sameHost {
			return
		}
		if baseV > 0 && curV < baseV*0.75 {
			failures = append(failures,
				fmt.Sprintf("%s regressed >25%%: %.2f vs baseline %.2f", name, curV, baseV))
		}
	}
	// A cold/warm speedup also moves when only the cold compile gets
	// faster, so warm-hit cost is gated on its own.
	gateCost := func(name string, cur, base []CacheEntry) {
		if !sameHost {
			return
		}
		curV, baseV := warmTotals(cur, base)
		if baseV > 0 && curV > baseV*1.25 {
			failures = append(failures,
				fmt.Sprintf("%s regressed >25%%: %.0f ns vs baseline %.0f ns", name, curV, baseV))
		}
	}
	failures = append(failures, checkAllocs(cur, base)...)
	gate("simulated MIPS", cur.Sim.SimulatedMIPS, base.Sim.SimulatedMIPS)
	gateCost("warm memory-tier hit cost", cur.Cache, base.Cache)
	gateCost("warm disk-tier hit cost", cur.WarmDisk, base.WarmDisk)
	gate("codec decode-vs-reparse speedup", cur.CodecDecodeSpeedup, base.CodecDecodeSpeedup)
	if cur.CacheSpeedup < cacheSpeedupFloor {
		failures = append(failures, fmt.Sprintf(
			"warm-cache compile speedup %.2fx below the %.0fx floor", cur.CacheSpeedup, cacheSpeedupFloor))
	}
	if cur.CodecDecodeSpeedup < codecDecodeSpeedupFloor {
		failures = append(failures, fmt.Sprintf(
			"codec decode-vs-reparse speedup %.2fx below the %.0fx floor",
			cur.CodecDecodeSpeedup, codecDecodeSpeedupFloor))
	}
	// The parallel-scaling gate adapts to where the artifacts were
	// produced. A relative comparison only means something when both hosts
	// could actually scale; with a single-CPU or foreign-host baseline the
	// current run is instead held to an absolute floor, so the gate stays
	// meaningful without demanding the baseline be regenerated.
	switch {
	case sameHost && cur.CPUs >= 4 && base.CPUs >= 4:
		gate("runtable parallel speedup", cur.RunTable.Speedup, base.RunTable.Speedup)
	case cur.CPUs >= 4:
		if cur.RunTable.Speedup < parallelSpeedupFloor {
			failures = append(failures, fmt.Sprintf(
				"runtable parallel speedup %.2fx below the %.2fx absolute floor (%d CPUs, baseline measured on %d)",
				cur.RunTable.Speedup, parallelSpeedupFloor, cur.CPUs, base.CPUs))
		}
	default:
		fmt.Fprintf(os.Stderr,
			"hotpath: parallel-scaling gate skipped: current host has %d CPU(s), need >= 4\n",
			cur.CPUs)
	}
	if len(failures) > 0 {
		msg := "regression vs baseline:"
		for _, f := range failures {
			msg += "\n  " + f
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// warmTotals sums the warm ns/op of the kernels both cache sections
// measured, current and baseline.
func warmTotals(cur, base []CacheEntry) (curV, baseV float64) {
	baseNs := make(map[string]float64, len(base))
	for _, e := range base {
		baseNs[e.Kernel] = e.WarmNsPerOp
	}
	for _, e := range cur {
		if b, ok := baseNs[e.Kernel]; ok {
			curV += e.WarmNsPerOp
			baseV += b
		}
	}
	return curV, baseV
}

// checkAllocs holds every kernel's cold-compile and predecode allocs/op to
// the baseline's. A deterministic compile allocates the same objects on any
// host, but the count depends on the toolchain's runtime and standard
// library, so the gate applies only when both artifacts name the same Go
// version.
func checkAllocs(cur, base Artifact) []string {
	if cur.Provenance.GoVersion != base.Provenance.GoVersion {
		fmt.Fprintf(os.Stderr, "hotpath: allocation gate skipped: Go version %s vs baseline %s\n",
			cur.Provenance.GoVersion, base.Provenance.GoVersion)
		return nil
	}
	type row struct{ kernel, what string }
	baseAllocs := make(map[row]float64, len(base.Cache)+len(base.Predecode))
	for _, e := range base.Cache {
		baseAllocs[row{e.Kernel, "cold compile"}] = e.ColdAllocsPerOp
	}
	for _, e := range base.Predecode {
		baseAllocs[row{e.Kernel, "predecode"}] = e.AllocsPerOp
	}
	var failures []string
	gate := func(r row, n float64) {
		if b, ok := baseAllocs[r]; ok && n > b {
			failures = append(failures, fmt.Sprintf(
				"%s %s allocates %.0f objects/op, baseline %.0f", r.kernel, r.what, n, b))
		}
	}
	for _, e := range cur.Cache {
		gate(row{e.Kernel, "cold compile"}, e.ColdAllocsPerOp)
	}
	for _, e := range cur.Predecode {
		gate(row{e.Kernel, "predecode"}, e.AllocsPerOp)
	}
	return failures
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hotpath:", err)
	os.Exit(1)
}

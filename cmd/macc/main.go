// Command macc is the compiler driver: it compiles a mini-C translation
// unit for one of the paper's three machine models, optionally dumps the
// RTL after each pipeline stage or the control-flow graph as Graphviz DOT
// (the Figure 5 flow graph), and can run a function on the simulator and
// report cycles and memory references.
//
// Examples:
//
//	macc -print prog.c
//	macc -machine m88100 -coalesce loads -dump prog.c
//	macc -dot f prog.c | dot -Tpng > cfg.png
//	macc -run 'dotproduct(4096,8192,100)' -mem 65536 prog.c
//
// The pipeline is hardened: by default a pass that panics or emits RTL the
// verifier rejects is rolled back and compilation continues in degraded
// mode (reported on stderr); -strict restores fail-fast behaviour. -bisect
// binary-searches the pass list for the first pass that breaks the -run
// call, and -inject deliberately sabotages a pass to exercise both.
//
//	macc -strict prog.c
//	macc -inject 'unroll:panic' -run 'dotproduct(4096,8192,100)' prog.c
//	macc -inject 'coalesce:flip-op:3' -bisect -run 'dotproduct(4096,8192,100)' prog.c
//
// The observability layer explains every optimization decision: -remarks
// prints the coalescer/unroller/IV-analysis optimization remarks (one
// Passed or Missed per examined loop, with a machine-readable reason;
// -remarks=json for JSONL), -trace writes the per-pass spans as Chrome
// trace_event JSON loadable in about://tracing, -metrics dumps the metrics
// registry — which, combined with -run, holds the static coalescing
// counters and the measured memory traffic side by side — and -profile n
// prints the n hottest basic blocks of the simulated run.
//
//	macc -remarks prog.c
//	macc -remarks=json -trace trace.json -metrics metrics.json -run 'f(4096,100)' prog.c
//	macc -profile 10 -run 'f(4096,100)' prog.c
//
// Several input files compile in parallel on a bounded worker pool (-j,
// default GOMAXPROCS); each file's output is buffered and printed in input
// order, so the result is identical to compiling them one at a time.
// Single-file-only flags (-run, -dot, -dump, -trace, -metrics, -bisect,
// -profile, -inject) are rejected in this mode.
//
//	macc -j 8 -print kernels/*.c
//
// Compiles are memoized through the content-addressed compile cache:
// -cache-dir enables the on-disk tier (hits survive across invocations and
// are revalidated by reparse, so a corrupt entry silently recompiles), and
// -cache-mem sizes the in-memory tier. In multi-file mode the cache is
// shared across the worker pool with singleflight deduplication, so
// duplicate inputs on the command line compile exactly once — unless
// -remarks is on without -cache-dir, since a cache hit skips the pass
// pipeline and would swallow the per-file remark stream. Cache counters
// (ccache.mem_hits, ccache.disk_hits, ...) are folded into the -metrics
// output.
//
//	macc -cache-dir ~/.cache/macc -print prog.c   # second run hits
//	macc -j 8 -cache-dir /tmp/mc -print a.c a.c   # a.c compiles once
//
// Compiled programs round-trip through the binary flat-IR codec (the same
// format the disk cache stores): -emit=bin writes the encoded program to -o,
// and -in=bin loads such a file directly — checksummed and verified, no
// pipeline rerun — so -print and -run work on the decoded image:
//
//	macc -emit=bin -o prog.bin prog.c
//	macc -in=bin -print prog.bin        # byte-identical to macc -print prog.c
//	macc -in=bin -run 'f(4096,100)' prog.bin
//
// -in=bin -reopt re-runs the optimization pipeline over the decoded image.
// Every pass executes natively on the flat form, so the image is
// materialized back to the pointer graph only once, for printing:
//
//	macc -in=bin -reopt -print prog.bin
//
// With -server the compile runs on a maccd farm instead of locally, through
// the resilient farm client (retries with failover, circuit breakers);
// -priority batch marks the request sheddable under saturation. Both modes
// print the farm's compile and run responses through the same writers, so
// the output of either is byte for byte the same:
//
//	macc -server http://farm0:8080,http://farm1:8080 -print prog.c
//	macc -server http://farm0:8080 -priority batch -run 'f(4096,100)' prog.c
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"macc"
	"macc/internal/ccache"
	"macc/internal/farm"
	"macc/internal/faultinject"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
	"macc/internal/sim"
	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
)

// remarksFlag implements -remarks[=json|text]: a bool-style flag whose bare
// form means text output.
type remarksFlag struct{ mode string }

func (r *remarksFlag) String() string { return r.mode }

func (r *remarksFlag) Set(s string) error {
	switch s {
	case "true", "text":
		r.mode = "text"
	case "false", "off", "":
		r.mode = ""
	case "json":
		r.mode = "json"
	default:
		return fmt.Errorf("bad -remarks mode %q (want text or json)", s)
	}
	return nil
}

func (r *remarksFlag) IsBoolFlag() bool { return true }

func main() {
	machName := flag.String("machine", "alpha", "target machine: alpha, m88100, m68030")
	coalesce := flag.String("coalesce", "both", "coalescing mode: both, loads, stores, off")
	unrollFlag := flag.String("unroll", "auto", "unroll factor: auto, off, or a number")
	schedule := flag.Bool("schedule", true, "run the list scheduler")
	optimize := flag.Bool("O", true, "run the clean-up optimizations")
	force := flag.Bool("force", false, "apply coalescing even when predicted unprofitable")
	static := flag.Bool("static-only", false, "disable run-time checks (compile-time provable cases only)")
	dump := flag.Bool("dump", false, "dump RTL after every pipeline stage")
	printRTL := flag.Bool("print", false, "print the final RTL")
	dotFn := flag.String("dot", "", "print the DOT control-flow graph of the named function")
	run := flag.String("run", "", "run 'fn(arg,arg,...)' on the simulator")
	mem := flag.Int("mem", 1<<20, "simulator memory size in bytes (0 or less: 1 MiB)")
	reports := flag.Bool("reports", false, "print the coalescer's per-loop reports")
	regs := flag.Int("regs", 0, "register file size for the allocator (0 = virtual registers)")
	profile := flag.Int("profile", 0, "with -run: print the n hottest basic blocks")
	var remarks remarksFlag
	flag.Var(&remarks, "remarks", "print optimization remarks (-remarks=json for JSONL)")
	traceOut := flag.String("trace", "", "write per-pass spans as Chrome trace_event JSON to this file")
	metricsOut := flag.String("metrics", "", "write the metrics registry as JSON to this file ('-' for stdout)")
	strict := flag.Bool("strict", false, "fail fast on the first pass failure instead of degrading")
	inject := flag.String("inject", "", "sabotage a pass: 'pass:kind[:seed]' (kinds: panic, clobber-reg, drop-terminator, retarget-branch, flip-op)")
	bisect := flag.Bool("bisect", false, "with -run: binary-search the pass list for the first pass that breaks the call")
	emit := flag.String("emit", "", "emit the compiled program in this format: bin (binary flat-IR codec)")
	output := flag.String("o", "", "with -emit: output path ('-' or empty for stdout)")
	inFmt := flag.String("in", "", "input format: bin (a binary flat-IR codec file, skips the pipeline)")
	reopt := flag.Bool("reopt", false, "with -in=bin: re-run the optimization pipeline over the decoded image on the flat form")
	jobs := flag.Int("j", 0, "with multiple input files: compile them on this many workers (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "enable the on-disk compile cache tier rooted at this directory")
	cacheMem := flag.Int64("cache-mem", ccache.DefaultMemBudget, "in-memory compile cache budget in bytes")
	server := flag.String("server", "", "comma-separated maccd base URLs: compile remotely on the farm instead of locally")
	priority := flag.String("priority", "", "with -server: admission tier, interactive (default) or batch")
	remoteTimeout := flag.Duration("server-timeout", 30*time.Second, "with -server: per-attempt request timeout")
	remoteTraceID := flag.Bool("trace-id", false, "with -server: print the request's distributed trace ID on stderr (inspect it at <replica>/debug/trace/<id>)")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: macc [flags] file.c|file.rtl|file.bin ...")
		flag.Usage()
		os.Exit(2)
	}
	switch *emit {
	case "", "bin":
	default:
		fatal(fmt.Errorf("unknown -emit format %q (want bin)", *emit))
	}
	switch *inFmt {
	case "", "bin":
	default:
		fatal(fmt.Errorf("unknown -in format %q (want bin)", *inFmt))
	}
	if *reopt && *inFmt != "bin" {
		fatal(errors.New("-reopt requires -in=bin"))
	}

	// The pipeline flags speak the farm's request vocabulary, so a local
	// compile and a -server compile read them through the same Config.
	req := farm.RunRequest{
		CompileRequest: farm.CompileRequest{
			Machine:   *machName,
			Coalesce:  *coalesce,
			Unroll:    *unrollFlag,
			Optimize:  optimize,
			Schedule:  schedule,
			Registers: *regs,
			Priority:  *priority,
		},
		Call: *run,
		Mem:  *mem,
	}
	sh := show{reports: *reports, remarks: remarks.mode, rtl: *printRTL}
	if *server != "" {
		if flag.NArg() > 1 {
			fatal(errors.New("-server compiles a single input file"))
		}
		if *emit != "" || *inFmt != "" {
			fatal(errors.New("-emit and -in are local-compile flags"))
		}
		if *dump || *dotFn != "" || *traceOut != "" || *metricsOut != "" || *bisect ||
			*profile > 0 || *inject != "" || remarks.mode != "" || *cacheDir != "" ||
			*force || *static || *strict {
			fatal(errors.New("-server supports only -machine, -coalesce, -unroll, -O, -schedule, -regs, -print, -reports, -run, -mem, and -priority"))
		}
		var servers []string
		for _, s := range strings.Split(*server, ",") {
			if s = strings.TrimSpace(s); s != "" {
				servers = append(servers, s)
			}
		}
		opts := farm.ClientOptions{Peers: servers, AttemptTimeout: *remoteTimeout, Tracer: dtrace.New("macc-cli", 0)}
		os.Exit(runRemote(opts, flag.Arg(0), req, sh, *remoteTraceID))
	}

	cfg, err := req.Config()
	if err != nil {
		fatal(err)
	}
	cfg.Coalesce.Force = *force
	cfg.Coalesce.NoRuntimeChecks = *static
	cfg.Strict = *strict
	if *dump {
		cfg.DumpStage = dumpStages(os.Stdout)
	}
	if *inject != "" {
		inj, ierr := parseInject(*inject)
		if ierr != nil {
			fatal(ierr)
		}
		cfg.WrapPass = inj.Hook()
	}
	if flag.NArg() > 1 {
		if *run != "" || *dotFn != "" || *dump || *traceOut != "" || *metricsOut != "" || *bisect || *profile > 0 || *inject != "" || *emit != "" || *inFmt != "" {
			fatal(fmt.Errorf("-run, -dot, -dump, -trace, -metrics, -bisect, -profile, -inject, -emit, and -in require a single input file"))
		}
		// The pool shares one cache so duplicate inputs compile once
		// (singleflight). Without -cache-dir a remarks run opts out:
		// hits skip the pipeline and would swallow per-file remarks.
		if *cacheDir != "" || remarks.mode == "" {
			cfg.Cache = ccache.New(ccache.Options{MemBudget: *cacheMem, Dir: *cacheDir})
		}
		os.Exit(compileMany(flag.Args(), cfg, *jobs, sh))
	}

	var cache *ccache.Cache
	if *cacheDir != "" {
		cache = ccache.New(ccache.Options{MemBudget: *cacheMem, Dir: *cacheDir})
		cfg.Cache = cache
	}

	var rec *telemetry.Recorder
	if remarks.mode != "" || *traceOut != "" || *metricsOut != "" {
		rec = telemetry.NewRecorder()
		cfg.Telemetry = rec
	}

	if *bisect {
		if *inFmt == "bin" {
			fatal(errors.New("-bisect needs a source input, not -in=bin"))
		}
		if err := runBisect(os.Stdout, flag.Arg(0), cfg, *run, *mem); err != nil {
			fatal(err)
		}
		return
	}

	if *inFmt == "bin" {
		// A binary flat-IR file is an already-compiled program: the passes
		// stay off unless -reopt asks for them, in which case they execute
		// on the flat image itself.
		cfg.Optimize = cfg.Optimize && *reopt
	}
	prog, err := loadProgram(flag.Arg(0), cfg, *inFmt == "bin")
	if err != nil {
		fatal(err)
	}
	if *emit == "bin" {
		data := codec.EncodeProgram(prog.Flat)
		if *output == "" || *output == "-" {
			if _, err := os.Stdout.Write(data); err != nil {
				fatal(err)
			}
		} else if err := os.WriteFile(*output, data, 0o666); err != nil {
			fatal(err)
		}
	}
	sh.write(os.Stdout, os.Stderr, "", farm.NewCompileResponse(prog), rec)
	if *dotFn != "" {
		f, ok := prog.Fn(*dotFn)
		if !ok {
			fatal(fmt.Errorf("no function %q", *dotFn))
		}
		fmt.Print(f.Dot())
	}
	if *run != "" {
		if err := runLocal(os.Stdout, prog, req, *profile, rec); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		fw, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		spans := rec.Spans()
		for i := range spans {
			spans[i].Service = "macc"
		}
		if err := dtrace.WriteChromeTrace(fw, spans); err != nil {
			fatal(err)
		}
		if err := fw.Close(); err != nil {
			fatal(err)
		}
	}
	if cache != nil && rec != nil {
		// Surface the compile cache's hit/miss/store counters alongside
		// the compile's own metrics.
		rec.Metrics().Merge(cache.Metrics())
	}
	if *metricsOut != "" {
		w := os.Stdout
		if *metricsOut != "-" {
			fw, err := os.Create(*metricsOut)
			if err != nil {
				fatal(err)
			}
			defer fw.Close()
			w = fw
		}
		// Same envelope as maccd's /metrics and loadgen's artifact embed:
		// schema macc-metrics/v1 plus a service name.
		if err := rec.Metrics().WriteServiceJSON(w, "macc"); err != nil {
			fatal(err)
		}
	}
}

// fileResult is one input file's buffered output in multi-file mode.
type fileResult struct {
	out    string // stdout section (header, remarks, reports, RTL)
	errs   string // stderr section (errors, degraded-mode diagnostics)
	failed bool
}

// compileMany compiles every input file on a bounded worker pool, buffering
// each file's output so the final print is in input order regardless of
// which worker finished first. Returns the process exit code.
func compileMany(files []string, cfg macc.Config, jobs int, sh show) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(files) {
		jobs = len(files)
	}
	results := make([]fileResult, len(files))
	idxc := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxc {
				results[i] = compileOne(files[i], cfg, sh)
			}
		}()
	}
	for i := range files {
		idxc <- i
	}
	close(idxc)
	wg.Wait()

	exit := 0
	for _, r := range results {
		fmt.Print(r.out)
		fmt.Fprint(os.Stderr, r.errs)
		if r.failed {
			exit = 1
		}
	}
	return exit
}

// compileOne compiles a single file into a buffered result. Each compile
// gets its own telemetry recorder; a failed file does not stop the others.
func compileOne(path string, cfg macc.Config, sh show) fileResult {
	var out, errs strings.Builder
	fmt.Fprintf(&out, "==> %s <==\n", path)
	var rec *telemetry.Recorder
	if sh.remarks != "" {
		rec = telemetry.NewRecorder()
		cfg.Telemetry = rec
	}
	prog, err := loadProgram(path, cfg, false)
	if err != nil {
		fmt.Fprintf(&errs, "macc: %s: %v\n", path, err)
		return fileResult{out: out.String(), errs: errs.String(), failed: true}
	}
	sh.write(&out, &errs, path+": ", farm.NewCompileResponse(prog), rec)
	return fileResult{out: out.String(), errs: errs.String()}
}

// loadProgram reads one input file and compiles it under cfg. With bin set
// the file is a binary flat-IR image, which is decoded (checksum,
// structural validation and verification) and loaded through the driver;
// otherwise a .rtl file is textual RTL and any other file mini-C source.
func loadProgram(path string, cfg macc.Config, bin bool) (*macc.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	switch {
	case bin:
		fp, err := codec.DecodeProgram(src)
		if err != nil {
			return nil, err
		}
		return macc.OptimizeFlat(fp, cfg)
	case strings.HasSuffix(path, ".rtl"):
		rp, err := rtl.ParseProgram(string(src))
		if err != nil {
			return nil, err
		}
		return macc.CompileRTL(rp, cfg)
	default:
		return macc.Compile(string(src), cfg)
	}
}

// show is what a compile prints besides errors: the -reports loop
// reports, the -remarks stream in its format ("" for none), and the -print
// RTL.
type show struct {
	reports bool
	remarks string
	rtl     bool
}

// write prints one compile as every mode prints it: the degraded-mode
// notice on errs, then the loop reports, the remarks and the RTL on out.
// label prefixes the notice ("" or "file: "); rec holds the remarks and is
// read only when sh.remarks is set.
func (sh show) write(out, errs io.Writer, label string, resp farm.CompileResponse, rec *telemetry.Recorder) {
	if resp.Degraded {
		fmt.Fprintf(errs, "macc: %scompilation completed in degraded mode:\n%s", label, resp.Diagnostics)
	}
	if sh.reports {
		for _, r := range resp.Reports {
			fmt.Fprintf(out, "loop %-24s applied=%-5v %s (wide %dL/%dS, replaced %dL/%dS, sched %d->%d cycles, %d check instrs)\n",
				r.Header, r.Applied, r.Reason, r.WideLoads, r.WideStores,
				r.NarrowLoads, r.NarrowStores, r.CyclesOriginal, r.CyclesCoalesced, r.CheckInstrs)
		}
	}
	if sh.remarks != "" {
		fmt.Fprint(out, telemetry.FormatRemarks(rec.Remarks(), sh.remarks))
	}
	if sh.rtl {
		fmt.Fprint(out, resp.RTL)
	}
}

// runLocal runs req's call on prog through the farm's /run set-up, so -run
// and -mem read as maccd reads them, and prints the ret= line, preceded by
// the profile hottest blocks when profile > 0. With rec set, the run's
// counters land in its metrics.
func runLocal(w io.Writer, prog *macc.Program, req farm.RunRequest, profile int, rec *telemetry.Recorder) error {
	s, name, args, err := req.Prepare(func(int) (*macc.Program, error) { return prog, nil })
	if err != nil {
		return err
	}
	defer s.Release()
	if profile > 0 {
		s.EnableProfile()
	}
	if rec != nil {
		s.AttachMetrics(rec.Metrics())
	}
	res, err := s.Run(name, args...)
	if err != nil {
		return err
	}
	if profile > 0 {
		fmt.Fprint(w, sim.FormatProfile(s.Profile(), profile))
	}
	printRun(w, farm.NewRunResponse(res, prog.Cached))
	return nil
}

// dumpStages is the -dump hook: a banner naming the function and stage,
// then the function's RTL after that stage.
func dumpStages(w io.Writer) func(stage string, f *rtl.Fn) {
	return func(stage string, f *rtl.Fn) {
		fmt.Fprintf(w, "=== %s: %s ===\n%s\n", f.Name, stage, f)
	}
}

// parseInject parses the -inject spec "pass:kind[:seed]".
func parseInject(spec string) (*faultinject.Injector, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("bad -inject %q, want pass:kind[:seed]", spec)
	}
	kind, err := faultinject.ParseKind(parts[1])
	if err != nil {
		return nil, err
	}
	inj := &faultinject.Injector{Pass: parts[0], Kind: kind}
	if len(parts) == 3 {
		seed, err := strconv.ParseInt(parts[2], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -inject seed %q: %v", parts[2], err)
		}
		inj.Seed = seed
	}
	return inj, nil
}

// runBisect identifies the first pipeline pass that breaks the -run call
// and prints it on w: it rebuilds the unoptimized flat image, fingerprints
// its simulator behaviour, and binary-searches pass prefixes for the first
// behavioural divergence, verifier rejection, or pass panic.
func runBisect(w io.Writer, path string, cfg macc.Config, run string, mem int) error {
	if run == "" {
		return errors.New("-bisect requires -run 'fn(arg,...)'")
	}
	name, args, err := farm.ParseCall(run)
	if err != nil {
		return fmt.Errorf("bad -run: %w", err)
	}
	plain := cfg
	plain.Optimize = false
	plain.WrapPass = nil
	plain.Cache = nil // Bisect rewrites the image in place: it must not be a cache entry's
	prog, err := loadProgram(path, plain, false)
	if err != nil {
		return err
	}
	bad, err := macc.DifferentialPredicate(prog.Flat, name, cfg, mem, [][]int64{args})
	if err != nil {
		return err
	}
	res, err := macc.Bisect(prog.Flat, name, cfg, bad)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res)
	return nil
}

// printRun prints the -run result line.
func printRun(w io.Writer, r farm.RunResponse) {
	fmt.Fprintf(w, "ret=%d cycles=%d instrs=%d loads=%d stores=%d memrefs=%d icache-misses=%d dcache-misses=%d\n",
		r.Ret, r.Cycles, r.Instrs, r.Loads, r.Stores, r.MemRefs, r.ICacheMisses, r.DCacheMisses)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "macc:", err)
	os.Exit(1)
}

// Package macc is a retargetable optimizing back end reproducing "Memory
// Access Coalescing: A Technique for Eliminating Redundant Memory Accesses"
// (Davidson & Jinturkar, PLDI 1994). It compiles a C subset to a register
// transfer IR, applies the classic vpo-style optimization pipeline — loop
// invariant code motion, induction-variable strength reduction and test
// replacement, loop unrolling with a remainder loop, and list scheduling —
// and then performs the paper's contribution: coalescing consecutive narrow
// memory references into wide ones guarded by run-time alias and alignment
// checks. Compiled programs run on a cycle-accurate-in-spirit simulator of
// the paper's three evaluation targets (DEC Alpha, Motorola 88100, Motorola
// 68030), which reports cycles and memory reference counts.
//
// Quick start:
//
//	prog, err := macc.Compile(src, macc.Config{
//		Machine:  machine.Alpha(),
//		Coalesce: core.DefaultOptions(),
//	})
//	s := prog.NewSim(1 << 20)
//	res, err := s.Run("dotproduct", aAddr, bAddr, n)
package macc

import (
	"context"
	"fmt"
	"strconv"

	"macc/internal/ccache"
	"macc/internal/cfg"
	"macc/internal/core"
	"macc/internal/iv"
	"macc/internal/machine"
	"macc/internal/minic"
	"macc/internal/opt"
	"macc/internal/pipeline"
	"macc/internal/regalloc"
	"macc/internal/rtl"
	"macc/internal/sched"
	"macc/internal/sim"
	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
	"macc/internal/unroll"
)

// Config controls the compilation pipeline.
type Config struct {
	// Machine is the target description; defaults to the Alpha model.
	Machine *machine.Machine
	// Optimize enables the machine-independent clean-up passes. Without it
	// the pipeline stops after code generation (useful for debugging).
	Optimize bool
	// Unroll enables loop unrolling. UnrollFactor forces a factor; zero
	// selects the paper's heuristic (word width over narrowest reference,
	// capped by the instruction cache).
	Unroll       bool
	UnrollFactor int
	// Coalesce selects the memory access coalescing mode. The zero value
	// disables the transformation.
	Coalesce core.Options
	// Schedule runs the per-block list scheduler.
	Schedule bool
	// Registers, when non-zero, runs the linear-scan register allocator
	// with a register file of that size after scheduling (spill code is
	// therefore unscheduled, as in compilers that allocate late). Zero
	// keeps virtual registers, modelling an unbounded file.
	Registers int
	// DumpStage, when non-nil, receives the RTL after each pipeline stage
	// (stage name, function); used by cmd/macc -dump. Each call
	// materializes the one function from the flat form, so compiles that
	// leave it nil pay nothing for it.
	DumpStage func(stage string, f *rtl.Fn)
	// Strict makes the first pass failure (panic, pass error, or verifier
	// rejection of the pass's output) abort compilation with a
	// *pipeline.PassError. The default rolls the function back to its
	// last-known-good form, records the incident in Program.Diagnostics,
	// and continues with the remaining passes (degraded mode).
	Strict bool
	// WrapPass, when non-nil, wraps every optimization pass before it
	// runs; fault injection (internal/faultinject) and tracing hook in
	// here.
	WrapPass func(pipeline.FlatPass) pipeline.FlatPass
	// Telemetry, when non-nil, receives the compile's observability
	// stream: per-pass spans with IR deltas (exportable as a Chrome
	// trace), optimization remarks from the coalescer, unroller, and
	// induction-variable analysis, and the static metrics counters. Wire
	// the same recorder's Registry into sim.AttachMetrics to see static
	// decisions and dynamic memory traffic side by side.
	Telemetry *telemetry.Recorder
	// Unit names the translation unit being compiled — the kernel or source
	// file — and is stamped onto every optimization remark, completing the
	// remark's stable identity key (unit:fn/loop) that corpus-wide reports
	// diff on. Purely observational: it never affects compilation output or
	// the cache key.
	Unit string
	// Cache, when non-nil, memoizes whole compilations content-addressed
	// by (source text, configuration, machine): byte-identical inputs are
	// compiled once and every further Compile is served from the cache's
	// memory or disk tier, with concurrent identical compiles
	// deduplicated singleflight-style. A cache hit returns a program
	// observably identical to a cold compile (same printed RTL, same
	// simulated behaviour) but skips the pass pipeline, so per-pass
	// telemetry spans and remarks are not re-emitted; the cache's own
	// counters (ccache.mem_hits, ...) record the hit instead. The cache
	// is bypassed when DumpStage or WrapPass is set (those observe or
	// perturb individual passes and need the real pipeline), and compiles
	// that degrade (Diagnostics non-empty) are returned but never stored.
	Cache *ccache.Cache
	// Tracer, when non-nil together with Telemetry, links the compile's
	// per-pass pipeline spans into the distributed trace carried by the
	// CompileCtx context (each pass becomes a child of the span context in
	// ctx — typically the cache's compute span, or the server's ingress
	// span for uncached compiles). Like Telemetry, it never affects the
	// cache key or the compiled output.
	Tracer *dtrace.Tracer
}

// emitter returns the remark sink for the configured recorder (a Nop when
// telemetry is off), so passes emit unconditionally. Remarks are stamped
// with the configured Unit on their way through.
func (cfg Config) emitter() telemetry.Emitter {
	if cfg.Telemetry != nil {
		return telemetry.WithUnit(cfg.Telemetry, cfg.Unit)
	}
	return telemetry.Nop{}
}

// DefaultConfig enables everything on the Alpha model, mirroring the
// paper's "vpcc/vpo -O + coalescing" configuration.
func DefaultConfig() Config {
	return Config{
		Machine:  machine.Alpha(),
		Optimize: true,
		Unroll:   true,
		Coalesce: core.DefaultOptions(),
		Schedule: true,
	}
}

// BaselineConfig is the paper's "vpcc/vpo -O" column: everything except
// coalescing (loops still unrolled so the comparison isolates coalescing).
func BaselineConfig(m *machine.Machine) Config {
	return Config{Machine: m, Optimize: true, Unroll: true, Schedule: true}
}

// NativeConfig stands in for the native "cc -O" column: a credible but
// weaker compiler (no scheduling, no unrolling).
func NativeConfig(m *machine.Machine) Config {
	return Config{Machine: m, Optimize: true}
}

// Program is a compiled program bound to a machine model.
type Program struct {
	RTL     *rtl.Program
	Machine *machine.Machine
	// Flat is the program's verified flat (struct-of-arrays) image: the form
	// every optimization pass runs on and the pipeline's own output, or the
	// cached image for cache hits. It is never nil. NewSim predecodes from it
	// directly (sim.NewFlat); RTL is a pointer-graph view of the same
	// program, materialized once when the pipeline finishes.
	Flat *rtl.FlatProgram
	// Reports holds one entry per loop the coalescer examined.
	Reports []core.LoopReport
	// Unrolled maps function names to the factors applied.
	Unrolled map[string]int
	// Diagnostics records every pass that was rolled back during a
	// non-strict compile; empty when every pass ran cleanly.
	Diagnostics *pipeline.Diagnostics
	// Telemetry is the recorder the program was compiled with (nil when
	// observability was off). NewSim wires its registry into the
	// simulator, so static pipeline counters and dynamic run counters
	// accumulate side by side.
	Telemetry *telemetry.Recorder
	// Cached reports that this program was served from Config.Cache (a
	// memory/disk hit or a shared in-flight compile) rather than compiled
	// by this call.
	Cached bool
}

// Compile runs the full pipeline over a mini-C translation unit. With
// Config.Cache set, byte-identical (source, config, machine) compiles are
// served from the content-addressed cache instead of re-running the
// front end and pass pipeline.
func Compile(src string, cfg Config) (*Program, error) {
	return CompileCtx(context.Background(), src, cfg)
}

// CompileCtx is Compile with context propagation. When ctx carries a
// dtrace span context (a farm request's ingress span) and Config.Tracer is
// set, the compile's cache-tier decision, singleflight wait or compute
// span, and per-pass pipeline spans all join that request's trace.
func CompileCtx(ctx context.Context, src string, cfg Config) (*Program, error) {
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	cold := func(ctx context.Context) (*Program, error) { return compileSource(ctx, src, cfg) }
	if cfg.usesCache() {
		return compileCached(ctx, src, cfg, cold)
	}
	return cold(ctx)
}

func compileSource(ctx context.Context, src string, cfg Config) (*Program, error) {
	rp, err := minic.Compile(src)
	if err != nil {
		return nil, err
	}
	return compileProgram(ctx, rp, cfg)
}

// CompileRTL applies the pipeline to an already-built RTL program (used by
// tests and by callers constructing IR directly). With Config.Cache set the
// compile is keyed by the program's printed text; on a hit rp is left
// untouched and the cached result is returned instead.
func CompileRTL(rp *rtl.Program, cfg Config) (*Program, error) {
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	if cfg.usesCache() {
		return compileCached(context.Background(), rp.String(), cfg, func(ctx context.Context) (*Program, error) {
			return compileProgram(ctx, rp, cfg)
		})
	}
	return compileProgram(context.Background(), rp, cfg)
}

// compileProgram is the cold path: flatten the front end's output once and
// hand the image to OptimizeFlat. The input program is left untouched.
func compileProgram(ctx context.Context, rp *rtl.Program, cfg Config) (*Program, error) {
	fp, err := rtl.Flatten(rp)
	if err != nil {
		return nil, err
	}
	p, err := OptimizeFlat(fp, cfg)
	if err != nil {
		return nil, err
	}
	// Link the pipeline's per-pass spans under the request trace: children
	// of whatever span context rode in on ctx (the singleflight compute
	// span under a cache, the ingress span without one).
	if cfg.Tracer != nil && cfg.Telemetry != nil {
		dtrace.LinkRecorder(cfg.Tracer, dtrace.FromContext(ctx), cfg.Telemetry)
	}
	return p, nil
}

// usesCache reports whether this configuration may consult the compile
// cache. DumpStage and WrapPass observe or perturb individual passes, so
// their compiles must run the real pipeline every time.
func (cfg Config) usesCache() bool {
	return cfg.Cache != nil && cfg.DumpStage == nil && cfg.WrapPass == nil
}

// fingerprint renders every semantics-affecting Config field canonically;
// it is one of the three cache key components. The fingerprints are built
// with strconv appends into one buffer: every cached compile renders them.
func (cfg Config) fingerprint() string {
	var buf [128]byte
	b := appendBool(buf[:0], "opt=", cfg.Optimize)
	b = appendBool(b, ";unroll=", cfg.Unroll)
	b = appendInt(b, ";factor=", cfg.UnrollFactor)
	b = appendBool(b, ";coalesce=", cfg.Coalesce.Loads)
	b = appendBool(b, "/", cfg.Coalesce.Stores)
	b = appendBool(b, "/", cfg.Coalesce.Force)
	b = appendBool(b, "/", cfg.Coalesce.NoRuntimeChecks)
	b = appendBool(b, ";sched=", cfg.Schedule)
	b = appendInt(b, ";regs=", cfg.Registers)
	b = appendBool(b, ";strict=", cfg.Strict)
	return string(b)
}

// machineFingerprint renders the full machine description — capability
// flags, cache geometry, and both cost tables — so two models sharing a
// name but differing anywhere observable never share a cache key.
func machineFingerprint(m *machine.Machine) string {
	var buf [512]byte
	b := append(buf[:0], m.Name...)
	b = appendInt(b, ";word=", int(m.WordBytes))
	b = appendBool(b, ";align=", m.MustAlign)
	b = appendBool(b, ";pipe=", m.Pipelined)
	b = appendInt(b, ";icache=", m.ICacheBytes)
	b = appendInt(b, "/", m.BytesPerInstr)
	b = appendInt(b, "/", m.ICacheMissPenalty)
	b = appendInt(b, ";dcache=", m.DCacheBytes)
	b = appendInt(b, "/", m.DCacheMissPenalty)
	b = appendCostFingerprint(b, &m.Sched)
	b = appendCostFingerprint(b, &m.Exec)
	return string(b)
}

func appendCostFingerprint(b []byte, c *machine.Costs) []byte {
	b = appendInt(b, ";alu=", c.Alu)
	b = appendInt(b, ",mul=", c.Mul)
	b = appendInt(b, ",div=", c.Div)
	b = appendInt(b, ",x=", c.Extract)
	b = appendInt(b, ",i=", c.Insert)
	b = appendInt(b, ",br=", c.Branch)
	b = appendInt(b, ",call=", c.Call)
	b = appendInt(b, ",xo=", c.ExtractOcc)
	b = appendInt(b, ",io=", c.InsertOcc)
	for _, w := range [...]rtl.Width{rtl.W1, rtl.W2, rtl.W4, rtl.W8} {
		b = appendInt(b, ",l", int(w))
		b = appendInt(b, "=", c.Load[w])
		b = appendInt(b, "/", c.LoadOcc[w])
		b = appendInt(b, ",s", int(w))
		b = appendInt(b, "=", c.Store[w])
		b = appendInt(b, "/", c.StoreOcc[w])
	}
	return b
}

// appendInt appends key and then v in decimal.
func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendBool appends key and then v as "true" or "false".
func appendBool(b []byte, key string, v bool) []byte {
	return strconv.AppendBool(append(b, key...), v)
}

// compileCached serves the compile from cfg.Cache: a hit (memory, disk, or
// a shared in-flight compile) materializes a private program from the
// cached flat image — the image itself is shared, so a hit copies nothing
// but the Unflatten slab; a miss runs cold once — concurrent identical
// compiles wait for it instead of duplicating the work — and stores the
// flat snapshot of the result. Degraded compiles are returned but never
// stored (and a caller sharing the leader's flight sees the program without
// its diagnostics).
func compileCached(ctx context.Context, keySrc string, cfg Config, cold func(context.Context) (*Program, error)) (*Program, error) {
	key := ccache.KeyOf(keySrc, cfg.fingerprint(), machineFingerprint(cfg.Machine))
	var coldProg *Program
	e, hit, err := cfg.Cache.GetOrComputeCtx(ctx, key, func(cctx context.Context) (ccache.Entry, error) {
		p, err := cold(cctx)
		if err != nil {
			return ccache.Entry{}, err
		}
		coldProg = p
		snap := ccache.Entry{
			Machine:     cfg.Machine.Name,
			Reports:     append([]core.LoopReport(nil), p.Reports...),
			Unrolled:    make(map[string]int, len(p.Unrolled)),
			Uncacheable: p.Diagnostics.Degraded(),
		}
		for k, v := range p.Unrolled {
			snap.Unrolled[k] = v
		}
		// The compile's own flat image is the entry's program: the pipeline
		// built it from a private Flatten of the input, so the caller's RTL
		// shares nothing with it.
		snap.Flat = p.Flat
		return snap, nil
	})
	if err != nil {
		return nil, err
	}
	if !hit {
		return coldProg, nil
	}
	rp, err := e.Materialize()
	if err != nil {
		// A shared flight whose leader could not flatten (degenerate):
		// fall back to compiling locally.
		return cold(ctx)
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.Count("ccache.compile_hits", 1)
	}
	return &Program{
		RTL:         rp,
		Machine:     cfg.Machine,
		Flat:        e.Flat,
		Reports:     e.CloneReports(),
		Unrolled:    e.CloneUnrolled(),
		Diagnostics: &pipeline.Diagnostics{},
		Telemetry:   cfg.Telemetry,
		Cached:      true,
	}, nil
}

func newProgram(m *machine.Machine) *Program {
	return &Program{Machine: m, Unrolled: make(map[string]int),
		Diagnostics: &pipeline.Diagnostics{}}
}

// loopGraph builds function fi's graph and finds its natural loops, after
// giving every loop a preheader so later analyses see a stable shape.
// EnsurePreheader leaves the graph stale when it appends a block, so the
// graph is rebuilt and the loops found again only if the block count grew.
// Callers still run EnsurePreheader on each returned loop to record its
// preheader.
func loopGraph(fp *rtl.FlatProgram, fi int) (*cfg.FlatGraph, []*cfg.FlatLoop) {
	nb := len(fp.Fns[fi].Blocks)
	g := cfg.NewFlat(fp, fi)
	loops := g.FindLoops()
	for _, l := range loops {
		g.EnsurePreheader(l)
	}
	if len(fp.Fns[fi].Blocks) != nb {
		g = cfg.NewFlat(fp, fi)
		loops = g.FindLoops()
	}
	return g, loops
}

// hoistInvariants is the "licm" pass: hoist loop invariants, innermost-first,
// iterated because hoisting can expose more loops' invariants.
func hoistInvariants(fp *rtl.FlatProgram, fi int) {
	for i := 0; i < 4; i++ {
		g, loops := loopGraph(fp, fi)
		for _, l := range loops {
			g.EnsurePreheader(l)
		}
		changed := false
		for _, l := range loops {
			changed = opt.FlatHoistInvariants(fp, fi, l) || changed
		}
		if !changed {
			break
		}
		opt.FlatClean(fp, fi)
	}
}

// strengthReduce is the "strength-reduce" pass: induction-variable strength
// reduction and test replacement give memory references the
// base+displacement shape and free the counter.
func strengthReduce(fp *rtl.FlatProgram, fi int, em telemetry.Emitter) {
	f := &fp.Fns[fi]
	fn := fp.Syms[f.Name]
	g, loops := loopGraph(fp, fi)
	for _, l := range loops {
		g.EnsurePreheader(l)
		info := iv.AnalyzeFlat(g, l)
		em.Emit(info.Remark("strength-reduce", fn))
		if ptrs := info.StrengthReduce(); len(ptrs) > 0 {
			replaced := info.ReplaceTest(ptrs)
			em.Count("iv.pointers_strength_reduced", int64(len(ptrs)))
			rem := telemetry.Remark{
				Kind: telemetry.Passed, Pass: "strength-reduce",
				Fn: fn, Loop: fp.Syms[f.Blocks[l.Header].Name], Name: "StrengthReduced",
				Reason: "iv:pointer-ivs-materialized",
				Args:   map[string]int64{"pointers": int64(len(ptrs))},
			}
			if replaced {
				rem.Args["test_replaced"] = 1
			}
			em.Emit(rem)
		}
	}
	opt.FlatEliminateDeadIVs(fp, fi)
	opt.FlatClean(fp, fi)
}

// unrollLoops is the loop-replication part of the "unroll" pass; the caller
// finishes with address normalization and a clean sweep. Returns the
// per-function factors to stage.
func unrollLoops(conf Config, fp *rtl.FlatProgram, fi int) map[string]int {
	em := conf.emitter()
	f := &fp.Fns[fi]
	fn := fp.Syms[f.Name]
	staged := make(map[string]int)
	g, loops := loopGraph(fp, fi)
	missed := func(header, reason string) {
		em.Emit(telemetry.Remark{
			Kind: telemetry.Missed, Pass: "unroll", Fn: fn,
			Loop: header, Name: "NotUnrolled", Reason: reason,
		})
	}
	for _, l := range loops {
		g.EnsurePreheader(l)
		header := fp.Syms[f.Blocks[l.Header].Name]
		c, ok := unroll.Shape(f, l)
		if !ok {
			missed(header, "shape:not-canonical")
			continue
		}
		info := iv.AnalyzeFlat(g, l)
		factor := conf.UnrollFactor
		if factor == 0 {
			factor = unroll.ChooseFactor(conf.Machine, f, c, info)
		}
		if factor < 2 {
			missed(header, "heuristic:factor<2")
			continue
		}
		if _, err := unroll.Unroll(fp, fi, c, info, factor); err == nil {
			staged[fn] = factor
			em.Count("unroll.loops", 1)
			em.Observe("unroll.factor", int64(factor))
			em.Emit(telemetry.Remark{
				Kind: telemetry.Passed, Pass: "unroll", Fn: fn,
				Loop: header, Name: "Unrolled",
				Reason: "heuristic:icache-bounded",
				Args:   map[string]int64{"factor": int64(factor)},
			})
		} else {
			missed(header, "shape:"+err.Error())
		}
	}
	return staged
}

// OptimizeFlat is the compile driver: every compile — from source, from RTL,
// or from an image decoded from a .bin emitted by cmd/macc — runs through
// it. It checks fp once with Verify, then, when cfg.Optimize is set, runs
// the pass pipeline over each function under the hardened pass manager
// (panic recovery, a verification checkpoint after every pass, and in
// non-strict mode rollback with the incident recorded in Diagnostics). The
// image is mutated in place and materialized only once, at the end. The
// returned Program carries the image on Flat and that materialized view on
// RTL.
func OptimizeFlat(fp *rtl.FlatProgram, cfg Config) (*Program, error) {
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	if err := fp.Verify(); err != nil {
		return nil, err
	}
	p := newProgram(cfg.Machine)
	p.Telemetry = cfg.Telemetry
	passes, opts := p.pipelineFor(cfg)
	for fi := range fp.Fns {
		if cfg.DumpStage != nil {
			cfg.DumpStage("codegen", fp.UnflattenFn(fi))
		}
		if !cfg.Optimize {
			continue
		}
		if err := pipeline.RunFlat(fp, fi, passes, opts); err != nil {
			return nil, fmt.Errorf("%s: %w", fp.SymName(fp.Fns[fi].Name), err)
		}
	}
	p.RTL = fp.Unflatten()
	p.Flat = fp
	return p, nil
}

// pipelineFor builds cfg's pass list, wrapped by cfg.WrapPass, and the hardened
// pass manager's options: strict or degraded mode, incidents into
// p.Diagnostics, spans into the recorder, and stage dumps into cfg.DumpStage.
func (p *Program) pipelineFor(cfg Config) ([]pipeline.FlatPass, pipeline.Options) {
	passes := p.stages(cfg)
	if cfg.WrapPass != nil {
		for i := range passes {
			passes[i] = cfg.WrapPass(passes[i])
		}
	}
	opts := pipeline.Options{
		Strict:   cfg.Strict,
		Diags:    p.Diagnostics,
		Recorder: cfg.Telemetry,
	}
	if cfg.DumpStage != nil {
		opts.OnPass = func(stage string, fp *rtl.FlatProgram, fi int) {
			cfg.DumpStage(stage, fp.UnflattenFn(fi))
		}
	}
	return passes, opts
}

// stages builds the pass sequence for cfg. Every stage runs natively on the
// flat arrays of one function. Side records (coalescing reports, unroll
// factors) are staged inside each pass and committed by its OnSuccess hook,
// so a rolled-back pass leaves no trace of undone work.
func (p *Program) stages(cfg Config) []pipeline.FlatPass {
	passes := []pipeline.FlatPass{
		{Name: "clean", Run: func(fp *rtl.FlatProgram, fi int) error {
			opt.FlatClean(fp, fi)
			opt.FlatThreadJumps(fp, fi)
			return nil
		}},
		{Name: "licm", Run: func(fp *rtl.FlatProgram, fi int) error {
			hoistInvariants(fp, fi)
			return nil
		}},
		{Name: "strength-reduce", Run: func(fp *rtl.FlatProgram, fi int) error {
			strengthReduce(fp, fi, cfg.emitter())
			return nil
		}},
	}
	if cfg.Unroll {
		var staged map[string]int
		passes = append(passes, pipeline.FlatPass{
			Name: "unroll",
			Run: func(fp *rtl.FlatProgram, fi int) error {
				staged = unrollLoops(cfg, fp, fi)
				opt.FlatNormalizeAddresses(fp, fi)
				opt.FlatClean(fp, fi)
				return nil
			},
			OnSuccess: func() {
				for name, factor := range staged {
					p.Unrolled[name] = factor
				}
			},
		})
	}
	if cfg.Coalesce.Loads || cfg.Coalesce.Stores {
		var staged []core.LoopReport
		passes = append(passes, pipeline.FlatPass{
			Name: "coalesce",
			Run: func(fp *rtl.FlatProgram, fi int) error {
				staged = core.CoalesceMemoryAccesses(fp, fi, cfg.Machine, cfg.Coalesce, cfg.emitter())
				opt.FlatClean(fp, fi)
				return nil
			},
			OnSuccess: func() { p.Reports = append(p.Reports, staged...) },
		})
	}
	if cfg.Schedule {
		passes = append(passes, pipeline.FlatPass{Name: "schedule", Run: func(fp *rtl.FlatProgram, fi int) error {
			sched.ScheduleFlatFn(fp, fi, cfg.Machine)
			return nil
		}})
	}
	if cfg.Registers > 0 {
		passes = append(passes, pipeline.FlatPass{Name: "regalloc", Run: func(fp *rtl.FlatProgram, fi int) error {
			_, err := regalloc.Run(fp, fi, cfg.Registers)
			return err
		}})
	}
	return passes
}

// Passes returns the names of the pipeline stages cfg would run, in order.
func Passes(cfg Config) []string {
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	p := newProgram(cfg.Machine)
	var names []string
	for _, ps := range p.stages(cfg) {
		names = append(names, ps.Name)
	}
	return names
}

// Bisect binary-searches the optimization pipeline for the first pass that
// breaks function name, in the style of LLVM's -opt-bisect-limit. fp must
// be the *unoptimized* flat image (Program.Flat of a compile with Optimize:
// false), private to the caller: each probe restores the function from a
// snapshot, runs a prefix of the pass list on fp in place with the flat
// pass manager and applies bad — typically DifferentialPredicate, which
// compares simulator behaviour against the unoptimized build. fp is left as
// it was passed in. The WrapPass hook is honoured, so injected faults are
// attributed like real pass bugs.
func Bisect(fp *rtl.FlatProgram, name string, cfg Config, bad pipeline.Predicate) (pipeline.BisectResult, error) {
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	for fi := range fp.Fns {
		if fp.SymName(fp.Fns[fi].Name) == name {
			passes, _ := newProgram(cfg.Machine).pipelineFor(cfg)
			return pipeline.Bisect(fp, fi, passes, bad)
		}
	}
	return pipeline.BisectResult{}, fmt.Errorf("no function %q", name)
}

// DifferentialPredicate builds a bisection predicate that flags behavioural
// divergence: it fingerprints the simulator behaviour of the unoptimized
// image fp on the given argument sets, then judges a probe by fingerprinting
// the image as the probe left it. Simulator traps also count as failures.
func DifferentialPredicate(fp *rtl.FlatProgram, name string, cfg Config, memBytes int, argSets [][]int64) (pipeline.Predicate, error) {
	if cfg.Machine == nil {
		cfg.Machine = machine.Alpha()
	}
	want, err := pipeline.BehaviorFlat(fp, cfg.Machine, memBytes, name, argSets)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return func(fp *rtl.FlatProgram, _ int) error {
		got, err := pipeline.BehaviorFlat(fp, cfg.Machine, memBytes, name, argSets)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("behaviour diverges from the unoptimized build (fingerprint %s, want %s)", got, want)
		}
		return nil
	}, nil
}

// NewSim builds a simulator for the compiled program with memBytes of RAM.
// It predecodes the program's verified flat image directly (sim.NewFlat),
// with no pointer-graph walk. When the program was compiled with a
// telemetry recorder, the simulator publishes its dynamic counters into the
// same metrics registry.
func (p *Program) NewSim(memBytes int) *sim.Sim {
	s := sim.NewFlat(p.Flat, p.Machine, memBytes)
	if p.Telemetry != nil {
		s.AttachMetrics(p.Telemetry.Metrics())
	}
	return s
}

// Fn returns the named compiled function for inspection.
func (p *Program) Fn(name string) (*rtl.Fn, bool) { return p.RTL.Lookup(name) }

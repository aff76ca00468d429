// Package sim executes RTL programs on a simulated machine. It plays the
// role of the paper's hardware testbeds: a byte-addressable memory, an
// in-order single-issue pipeline timed by the target's Exec cost table, a
// direct-mapped instruction cache, and per-width memory reference counters.
// Because the model enforces natural alignment where the target requires it
// (the Alpha), the coalescer's run-time alignment checks are genuinely load
// bearing: removing them makes misaligned workloads trap.
//
// The execution core is predecoded: sim.NewFlat compiles each function into a
// dense instruction array with resolved operand slots, costs, and block
// indices (see decode.go), and the decoded image is reused across Reset and
// every Run. Memory is tracked with a dirty-range watermark so Reset zeroes
// only the bytes a run actually wrote. What NewFlat allocates besides the
// Sim — the memory arena, the cache tag arrays, the static-data table and
// the decoded image's slabs and name map — lives in one pooled storage (see
// storage.go): Release puts it back, and the next NewFlat reslices it
// instead of reallocating. The frame cache that Run fills stays with the Sim.
package sim

import (
	"errors"
	"fmt"

	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/telemetry"
)

// TrapKind classifies run-time faults.
type TrapKind uint8

// Trap kinds.
const (
	TrapNone TrapKind = iota
	TrapAlignment
	TrapOutOfBounds
	TrapDivideByZero
	TrapFuel
	TrapBadProgram
)

var trapNames = map[TrapKind]string{
	TrapAlignment:    "alignment fault",
	TrapOutOfBounds:  "memory access out of bounds",
	TrapDivideByZero: "integer divide by zero",
	TrapFuel:         "instruction budget exhausted",
	TrapBadProgram:   "malformed program",
}

// Trap is a simulated hardware fault.
type Trap struct {
	Kind TrapKind
	Fn   string
	Addr int64
	Msg  string
}

func (t *Trap) Error() string {
	s := fmt.Sprintf("%s in %s", trapNames[t.Kind], t.Fn)
	if t.Kind == TrapAlignment || t.Kind == TrapOutOfBounds {
		s += fmt.Sprintf(" at address %d", t.Addr)
	}
	if t.Msg != "" {
		s += ": " + t.Msg
	}
	return s
}

// IsTrap reports whether err is a trap of the given kind.
func IsTrap(err error, kind TrapKind) bool {
	var t *Trap
	return errors.As(err, &t) && t.Kind == kind
}

// Stats aggregates the counters the paper's evaluation reports.
type Stats struct {
	Cycles        int64
	Instrs        int64
	Loads         int64
	Stores        int64
	LoadsByWidth  map[rtl.Width]int64
	StoresByWidth map[rtl.Width]int64
	ICacheMisses  int64
	DCacheMisses  int64
	Branches      int64
}

// MemRefs is the total number of memory references executed.
func (s *Stats) MemRefs() int64 { return s.Loads + s.Stores }

func newStats() Stats {
	return Stats{
		LoadsByWidth:  make(map[rtl.Width]int64),
		StoresByWidth: make(map[rtl.Width]int64),
	}
}

// Result is the outcome of one simulated call.
type Result struct {
	Ret int64
	Stats
}

const (
	icacheLineBytes = 16
	dcacheLineBytes = 16
	defaultFuel     = 1 << 30
	maxCallDepth    = 128
)

// Sim is a loaded program plus machine state. Memory persists across Run
// calls so harnesses can initialize arrays, run, and inspect results.
type Sim struct {
	mach *machine.Machine
	// Mem is the simulated RAM. Reads are free-form, but writes should go
	// through WriteBytes/WriteInts (or simulated stores): the dirty-range
	// watermark that lets Reset and Release zero only the touched bytes
	// cannot see direct element assignment. A Sim whose Mem was written
	// directly must not be Released back to the storage pool.
	Mem []byte
	// Fuel bounds the number of executed instructions per Run (guards
	// against miscompiled infinite loops in tests). Zero means default.
	Fuel int64

	// st is the pooled storage behind Mem, the cache tags, the static data
	// and the predecoded program (st.img, built once in NewFlat); Release
	// returns it and leaves st nil.
	st *storage
	// badProgram, when non-nil, is why New could not load the program;
	// every Run traps with it.
	badProgram error
	// icache and dcache are st's tag arrays, held here for the hot loop;
	// dcache is nil on a machine without a D-cache.
	icache   []int64 // per-set tag, -1 invalid
	dcache   []int64 // per-set tag, -1 invalid; nil when disabled
	fuel     int64
	stats    *Stats
	stackTop int64 // grows down from the top of memory for spill frames
	frames   frameCache

	// Dirty-range watermark over Mem: every tracked write widens
	// [dirtyLo, dirtyHi). Reset and Release zero only this range.
	dirtyLo, dirtyHi int64

	// Per-width reference counters, folded into Stats maps when a Run
	// finishes (array indexing keeps the hot loop free of map operations).
	loadsW  [int(rtl.W8) + 1]int64
	storesW [int(rtl.W8) + 1]int64

	// Profiling state (see profile.go): when set, per-block execution
	// counters live in each dFn's execs array, indexed by block number, so
	// profiling needs no pointer back to the source program.
	profiling bool

	// metrics, when non-nil, receives each Run's dynamic memory-traffic
	// counters (see AttachMetrics).
	metrics *telemetry.Registry
}

// AttachMetrics publishes every subsequent Run's dynamic statistics —
// per-width reference counts, narrow vs word-wide traffic, bytes per
// reference, cache misses — into reg under the "sim." prefix. Attaching the
// registry of the compile's telemetry.Recorder puts the coalescer's static
// decisions and the measured memory-traffic deltas in one report.
func (s *Sim) AttachMetrics(reg *telemetry.Registry) { s.metrics = reg }

// flushMetrics accumulates one Run's stats into the attached registry.
func (s *Sim) flushMetrics(st *Stats) {
	reg := s.metrics
	if reg == nil {
		return
	}
	reg.Counter("sim.runs").Add(1)
	reg.Counter("sim.cycles").Add(st.Cycles)
	reg.Counter("sim.instrs").Add(st.Instrs)
	reg.Counter("sim.loads").Add(st.Loads)
	reg.Counter("sim.stores").Add(st.Stores)
	reg.Counter("sim.mem_refs").Add(st.MemRefs())
	reg.Counter("sim.branches").Add(st.Branches)
	reg.Counter("sim.icache_misses").Add(st.ICacheMisses)
	reg.Counter("sim.dcache_misses").Add(st.DCacheMisses)
	var bytes, narrow, wide int64
	count := func(byWidth map[rtl.Width]int64, kind string) {
		for w, n := range byWidth {
			reg.Counter(fmt.Sprintf("sim.%s.w%d", kind, int64(w))).Add(n)
			bytes += int64(w) * n
			if int64(w) < int64(s.mach.WordBytes) {
				narrow += n
			} else {
				wide += n
			}
		}
	}
	count(st.LoadsByWidth, "loads")
	count(st.StoresByWidth, "stores")
	reg.Counter("sim.bytes_accessed").Add(bytes)
	reg.Counter("sim.narrow_refs").Add(narrow)
	reg.Counter("sim.wide_refs").Add(wide)
	if refs := st.MemRefs(); refs > 0 {
		reg.Gauge("sim.bytes_per_ref").Set(float64(bytes) / float64(refs))
	}
	reg.Histogram("sim.run_cycles").Observe(st.Cycles)
}

// newSim builds a Sim on st for mach; both constructors start here.
func newSim(st *storage, mach *machine.Machine, memBytes int) *Sim {
	s := new(Sim)
	s.attach(st, mach, memBytes)
	return s
}

// attach hands st to s and sizes its machine state (memory arena, cache tag
// arrays) for mach.
func (s *Sim) attach(st *storage, mach *machine.Machine, memBytes int) {
	st.mem = sized(st.mem, memBytes)
	st.icache = sized(st.icache, max(mach.ICacheBytes/icacheLineBytes, 1))
	*s = Sim{
		mach:    mach,
		Mem:     st.mem,
		st:      st,
		icache:  st.icache,
		dirtyLo: int64(memBytes),
	}
	// A machine without a D-cache keeps dcache nil, which dcacheAccess reads
	// as "no cache", even when the storage holds another machine's tags.
	if mach.DCacheBytes > 0 {
		st.dcache = sized(st.dcache, max(mach.DCacheBytes/dcacheLineBytes, 1))
		s.dcache = st.dcache
	}
}

// New builds a simulator for prog on mach with memBytes of RAM: the program
// is flattened and predecoded here, once (see NewFlat); Reset and repeated
// Runs reuse the decoded image. A program Flatten rejects (an edge leaving
// its function, say) yields a Sim whose every Run returns a TrapBadProgram
// trap carrying the flatten error.
func New(prog *rtl.Program, mach *machine.Machine, memBytes int) *Sim {
	fp, err := rtl.Flatten(prog)
	if err != nil {
		s := newSim(drawStorage(), mach, memBytes)
		s.badProgram = err
		return s
	}
	return NewFlat(fp, mach, memBytes)
}

// NewFlat builds a simulator directly from a flat program image: the
// predecoder reads the SoA instruction arrays in place, so a cache hit that
// decoded into flat form never has to materialize *rtl.Program to be
// executed.
func NewFlat(fp *rtl.FlatProgram, mach *machine.Machine, memBytes int) *Sim {
	return newFlat(drawStorage(), fp, mach, memBytes)
}

// newFlat is NewFlat on a given storage.
func newFlat(st *storage, fp *rtl.FlatProgram, mach *machine.Machine, memBytes int) *Sim {
	s := newSim(st, mach, memBytes)
	st.globals = sized(st.globals, len(fp.Globals))
	for i := range fp.Globals {
		g := &fp.Globals[i]
		st.globals[i] = rtl.Global{
			Name: fp.SymName(g.Name),
			Addr: g.Addr,
			Size: g.Size,
			Init: g.Init,
		}
	}
	s.decodeFlat(fp)
	return s
}

// Release zeroes the dirty range of the simulator's memory and returns its
// storage (arena, cache tags, decoded image) to the pool for the next
// NewFlat. The Sim must not be used afterwards: a Run on it traps, and
// nothing else it held stays reachable. Callers that wrote Mem directly
// (bypassing WriteBytes / WriteInts) must not Release: the watermark never
// saw those writes.
func (s *Sim) Release() {
	if s.st == nil {
		return
	}
	storagePool.Put(s.detach())
}

// detach zeroes the dirty range, scrubs the program out of the storage and
// severs it from s, leaving s a released Sim.
func (s *Sim) detach() *storage {
	st := s.st
	s.zeroDirty()
	st.scrub()
	*s = Sim{}
	return st
}

// markDirty widens the watermark to cover [addr, addr+n).
func (s *Sim) markDirty(addr, n int64) {
	if addr < s.dirtyLo {
		s.dirtyLo = addr
	}
	if addr+n > s.dirtyHi {
		s.dirtyHi = addr + n
	}
}

// zeroDirty clears every byte the watermark saw written and resets it.
func (s *Sim) zeroDirty() {
	lo, hi := s.dirtyLo, s.dirtyHi
	if lo < 0 {
		lo = 0
	}
	if hi > int64(len(s.Mem)) {
		hi = int64(len(s.Mem))
	}
	if lo < hi {
		clear(s.Mem[lo:hi])
	}
	s.dirtyLo = int64(len(s.Mem))
	s.dirtyHi = 0
}

// Reset clears memory and the instruction cache. Only the dirty range the
// tracked write paths touched is zeroed, so resetting between measurements
// costs O(bytes written), not O(arena).
func (s *Sim) Reset() {
	s.zeroDirty()
	for i := range s.icache {
		s.icache[i] = -1
	}
}

// Run calls the named function with the given arguments and returns its
// result and execution statistics.
func (s *Sim) Run(fnName string, args ...int64) (Result, error) {
	if s.st == nil {
		return Result{}, &Trap{Kind: TrapBadProgram, Fn: fnName, Msg: "simulator was released"}
	}
	if s.badProgram != nil {
		return Result{}, &Trap{Kind: TrapBadProgram, Fn: fnName, Msg: s.badProgram.Error()}
	}
	df, ok := s.st.img.byName[fnName]
	if !ok {
		return Result{}, &Trap{Kind: TrapBadProgram, Fn: fnName, Msg: "no such function"}
	}
	s.fuel = s.Fuel
	if s.fuel == 0 {
		s.fuel = defaultFuel
	}
	for i := range s.icache {
		s.icache[i] = -1
	}
	for i := range s.dcache {
		s.dcache[i] = -1
	}
	s.stackTop = int64(len(s.Mem))
	s.loadGlobals()
	st := newStats()
	s.stats = &st
	clear(s.loadsW[:])
	clear(s.storesW[:])
	ret, _, err := s.exec(df, args, 0)
	s.foldWidths(&st)
	s.flushMetrics(&st)
	if err != nil {
		return Result{Stats: st}, err
	}
	return Result{Ret: ret, Stats: st}, nil
}

// foldWidths moves the array-indexed per-width counters into the Stats maps.
func (s *Sim) foldWidths(st *Stats) {
	for w, n := range s.loadsW {
		if n != 0 {
			st.LoadsByWidth[rtl.Width(w)] += n
		}
	}
	for w, n := range s.storesW {
		if n != 0 {
			st.StoresByWidth[rtl.Width(w)] += n
		}
	}
}

// loadGlobals materializes the program's static data. It runs at the start
// of every Run so a prior run's stores cannot leak into the next.
func (s *Sim) loadGlobals() {
	for i := range s.st.globals {
		g := &s.st.globals[i]
		if g.Addr < 0 || g.Addr+g.Size > int64(len(s.Mem)) {
			continue // impossible layout; execution will trap on access
		}
		region := s.Mem[g.Addr : g.Addr+g.Size]
		copy(region, g.Init)
		for i := len(g.Init); i < len(region); i++ {
			region[i] = 0
		}
		s.markDirty(g.Addr, g.Size)
	}
}

// dcacheAccess charges the data cache for one access touching
// [addr, addr+w) and returns stall cycles (an access spanning two lines
// charges both).
func (s *Sim) dcacheAccess(addr int64, w rtl.Width) int64 {
	if s.dcache == nil {
		return 0
	}
	var stall int64
	first := addr / dcacheLineBytes
	last := (addr + int64(w) - 1) / dcacheLineBytes
	for line := first; line <= last; line++ {
		set := line % int64(len(s.dcache))
		if s.dcache[set] != line {
			s.dcache[set] = line
			s.stats.DCacheMisses++
			stall += int64(s.mach.DCacheMissPenalty)
		}
	}
	return stall
}

func (s *Sim) load(fn string, addr int64, w rtl.Width, signed bool) (int64, *Trap) {
	if trap := s.checkAddr(fn, addr, w); trap != nil {
		return 0, trap
	}
	var v uint64
	for i := 0; i < int(w); i++ {
		v |= uint64(s.Mem[addr+int64(i)]) << (8 * uint(i))
	}
	return rtl.Extend(int64(v), w, signed), nil
}

func (s *Sim) store(fn string, addr int64, w rtl.Width, v int64) *Trap {
	if trap := s.checkAddr(fn, addr, w); trap != nil {
		return trap
	}
	for i := 0; i < int(w); i++ {
		s.Mem[addr+int64(i)] = byte(uint64(v) >> (8 * uint(i)))
	}
	s.markDirty(addr, int64(w))
	return nil
}

func (s *Sim) checkAddr(fn string, addr int64, w rtl.Width) *Trap {
	if addr < 0 || addr+int64(w) > int64(len(s.Mem)) {
		return &Trap{Kind: TrapOutOfBounds, Fn: fn, Addr: addr}
	}
	if s.mach.MustAlign && addr%int64(w) != 0 {
		return &Trap{Kind: TrapAlignment, Fn: fn, Addr: addr}
	}
	return nil
}

// WriteBytes copies data into memory at addr.
func (s *Sim) WriteBytes(addr int64, data []byte) {
	copy(s.Mem[addr:], data)
	s.markDirty(addr, int64(len(data)))
}

// ReadBytes copies n bytes out of memory at addr.
func (s *Sim) ReadBytes(addr int64, n int) []byte {
	out := make([]byte, n)
	copy(out, s.Mem[addr:])
	return out
}

// WriteInts stores a slice of integer values of width w starting at addr,
// little-endian, for harness setup.
func (s *Sim) WriteInts(addr int64, w rtl.Width, vals []int64) {
	for i, v := range vals {
		a := addr + int64(i)*int64(w)
		for j := 0; j < int(w); j++ {
			s.Mem[a+int64(j)] = byte(uint64(v) >> (8 * uint(j)))
		}
	}
	s.markDirty(addr, int64(len(vals))*int64(w))
}

// ReadInts loads n integer values of width w starting at addr.
func (s *Sim) ReadInts(addr int64, w rtl.Width, n int, signed bool) []int64 {
	out := make([]int64, n)
	for i := range out {
		a := addr + int64(i)*int64(w)
		var v uint64
		for j := 0; j < int(w); j++ {
			v |= uint64(s.Mem[a+int64(j)]) << (8 * uint(j))
		}
		out[i] = rtl.Extend(int64(v), w, signed)
	}
	return out
}

package farm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"macc"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/sim"
	"macc/internal/telemetry/dtrace"
)

// Debug-plane routes shared by maccd and the clients that push or pull
// trace spans.
const (
	// DebugSpansPath accepts a SpanIngest POST: clients (loadgen,
	// macc -server) push their local spans so a replica can answer
	// /debug/trace/<id> with the full tree.
	DebugSpansPath = "/debug/spans"
	// DebugTracePrefix serves one assembled trace; the remainder of the
	// path is the 32-hex trace ID.
	DebugTracePrefix = "/debug/trace/"
	// DebugFlightPath serves the replica's flight recorder.
	DebugFlightPath = "/debug/flight"
	// DebugFarmPath serves the plain-text farm dashboard.
	DebugFarmPath = "/debug/farm"
)

// SpanIngest is the POST /debug/spans body.
type SpanIngest struct {
	Spans []dtrace.Span `json:"spans"`
}

// TraceDump is the /debug/trace/<id>?format=spans answer: the raw span
// set, used replica-to-replica for trace assembly and by loadgen for
// per-hop breakdowns.
type TraceDump struct {
	Trace string        `json:"trace"`
	Spans []dtrace.Span `json:"spans"`
}

// Wire types shared by the service (cmd/maccd), the remote CLI
// (cmd/macc -server), and the load generator (cmd/loadgen).

// Priority tiers for admission control. Interactive traffic (a developer
// waiting at a prompt) is never queued behind batch traffic (a sweep
// harness); a saturated replica sheds batch first.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// CompileRequest selects a source, a machine, and a pipeline configuration
// (the same knobs as the cmd/macc flags, which cmd/macc reads through this
// type). Zero values mean the default optimizing configuration; Config is
// the one mapping of these fields onto a macc.Config.
type CompileRequest struct {
	Source string `json:"source"`
	// Machine is alpha, m88100, or m68030 (default alpha).
	Machine string `json:"machine,omitempty"`
	// Coalesce is both, loads, stores, or off (default both).
	Coalesce string `json:"coalesce,omitempty"`
	// Unroll is auto, off, or a factor >= 2 (default auto).
	Unroll string `json:"unroll,omitempty"`
	// Optimize and Schedule default to true; send false to disable.
	Optimize  *bool `json:"optimize,omitempty"`
	Schedule  *bool `json:"schedule,omitempty"`
	Registers int   `json:"registers,omitempty"`
	// Priority is interactive (default) or batch; batch requests are the
	// first shed under saturation.
	Priority string `json:"priority,omitempty"`
}

// AdmissionTier resolves the request's priority tier, defaulting to
// interactive. RunRequest inherits it through embedding, so the service's
// admission control can treat both request kinds uniformly.
func (r CompileRequest) AdmissionTier() string {
	if r.Priority == PriorityBatch {
		return PriorityBatch
	}
	return PriorityInteractive
}

// Config maps the request's machine and pipeline fields onto a
// macc.Config: zero values select Alpha with the clean-up passes,
// unrolling at the heuristic factor, scheduling, and coalescing of loads
// and stores. It rejects an unknown machine or coalescing mode, an unroll
// factor below 2, and a negative register count. Source and Priority are
// not read.
func (r CompileRequest) Config() (macc.Config, error) {
	name := r.Machine
	if name == "" {
		name = "alpha"
	}
	m, ok := machine.ByName(name)
	if !ok {
		return macc.Config{}, fmt.Errorf("unknown machine %q", name)
	}
	cfg := macc.Config{Machine: m, Optimize: true, Schedule: true}
	if r.Optimize != nil {
		cfg.Optimize = *r.Optimize
	}
	if r.Schedule != nil {
		cfg.Schedule = *r.Schedule
	}
	switch r.Coalesce {
	case "", "both":
		cfg.Coalesce = core.Options{Loads: true, Stores: true}
	case "loads":
		cfg.Coalesce = core.Options{Loads: true}
	case "stores":
		cfg.Coalesce = core.Options{Stores: true}
	case "off":
	default:
		return macc.Config{}, fmt.Errorf("unknown coalesce mode %q", r.Coalesce)
	}
	switch r.Unroll {
	case "", "auto":
		cfg.Unroll = true
	case "off":
	default:
		n, err := strconv.Atoi(r.Unroll)
		if err != nil || n < 2 {
			return macc.Config{}, fmt.Errorf("bad unroll %q", r.Unroll)
		}
		cfg.Unroll = true
		cfg.UnrollFactor = n
	}
	if r.Registers < 0 {
		return macc.Config{}, errors.New("negative registers")
	}
	cfg.Registers = r.Registers
	return cfg, nil
}

// CompileResponse carries the optimized RTL and the compile's side records.
type CompileResponse struct {
	RTL         string            `json:"rtl"`
	Machine     string            `json:"machine"`
	Cached      bool              `json:"cached"`
	Degraded    bool              `json:"degraded"`
	Diagnostics string            `json:"diagnostics,omitempty"`
	Reports     []core.LoopReport `json:"reports,omitempty"`
	Unrolled    map[string]int    `json:"unrolled,omitempty"`
}

// RunRequest compiles like CompileRequest and then executes Call on the
// simulator. Data seeds simulator memory before the run.
type RunRequest struct {
	CompileRequest
	// Call is "fn(arg, ...)" with integer arguments.
	Call string `json:"call"`
	// Mem is the simulator memory size in bytes, read by sim.MemSize: zero
	// or negative means 1 MiB.
	Mem int `json:"mem,omitempty"`
	// Data writes integer arrays into memory before the run.
	Data []DataWrite `json:"data,omitempty"`
}

// DataWrite is one pre-run memory initialization.
type DataWrite struct {
	Addr  int64   `json:"addr"`
	Width int     `json:"width"` // 1, 2, 4, or 8 bytes
	Ints  []int64 `json:"ints"`
}

// ParseCall parses a RunRequest.Call, "fn(arg, ...)", into the function
// name and its arguments. Arguments are integers in Go syntax, so 0x10 is
// 16; the name must not be empty.
func ParseCall(s string) (string, []int64, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("want fn(arg,...), got %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return "", nil, fmt.Errorf("missing function name in %q", s)
	}
	inner := strings.TrimSpace(s[open+1 : len(s)-1])
	var args []int64
	if inner != "" {
		for _, part := range strings.Split(inner, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 0, 64)
			if err != nil {
				return "", nil, fmt.Errorf("bad argument %q", part)
			}
			args = append(args, v)
		}
	}
	return name, args, nil
}

// writeData applies a RunRequest's Data to s's memory in order. A write
// whose width is not 1, 2, 4 or 8, or whose bytes do not all lie inside
// s.Mem, is rejected before it lands; the writes before it stay.
func writeData(s *sim.Sim, data []DataWrite) error {
	for _, d := range data {
		w := rtl.Width(d.Width)
		if !w.Valid() {
			return fmt.Errorf("bad data width %d", d.Width)
		}
		end := d.Addr + int64(len(d.Ints))*int64(w)
		if d.Addr < 0 || end > int64(len(s.Mem)) {
			return fmt.Errorf("data write [%d, %d) outside memory", d.Addr, end)
		}
		s.WriteInts(d.Addr, w, d.Ints)
	}
	return nil
}

// Prepare is the one /run set-up, shared by maccd's /run, macc -run and
// loadgen's reference runs. It parses r.Call, sizes the simulator's memory
// by the simulator's own rule (sim.MemSize), obtains the program from
// compile, builds the simulator and writes r.Data into it. compile is
// handed the memory size first, so a caller can bound it before compiling.
// A bad call fails as "bad call: …" before compile is called, and compile's
// error is returned as it is. When a step after the simulator is built
// fails, the simulator is released.
func (r RunRequest) Prepare(compile func(mem int) (*macc.Program, error)) (*sim.Sim, string, []int64, error) {
	name, args, err := ParseCall(r.Call)
	if err != nil {
		return nil, "", nil, fmt.Errorf("bad call: %w", err)
	}
	mem := sim.MemSize(r.Mem)
	prog, err := compile(mem)
	if err != nil {
		return nil, "", nil, err
	}
	s := prog.NewSim(mem)
	if err := writeData(s, r.Data); err != nil {
		s.Release()
		return nil, "", nil, err
	}
	return s, name, args, nil
}

// NewCompileResponse is the one CompileResponse for a compiled program:
// its printed RTL, machine, cache state, loop reports and unroll factors,
// and the diagnostics when the compile degraded.
func NewCompileResponse(p *macc.Program) CompileResponse {
	resp := CompileResponse{
		RTL:      p.RTL.String(),
		Machine:  p.Machine.Name,
		Cached:   p.Cached,
		Degraded: p.Diagnostics.Degraded(),
		Reports:  p.Reports,
		Unrolled: p.Unrolled,
	}
	if resp.Degraded {
		resp.Diagnostics = p.Diagnostics.String()
	}
	return resp
}

// NewRunResponse is the one RunResponse for a finished run; cached says
// whether the program came from a compile cache.
func NewRunResponse(res sim.Result, cached bool) RunResponse {
	return RunResponse{
		Ret:          res.Ret,
		Cycles:       res.Cycles,
		Instrs:       res.Instrs,
		Loads:        res.Loads,
		Stores:       res.Stores,
		MemRefs:      res.MemRefs(),
		ICacheMisses: res.ICacheMisses,
		DCacheMisses: res.DCacheMisses,
		Cached:       cached,
	}
}

// RunResponse is the simulator's verdict.
type RunResponse struct {
	Ret          int64 `json:"ret"`
	Cycles       int64 `json:"cycles"`
	Instrs       int64 `json:"instrs"`
	Loads        int64 `json:"loads"`
	Stores       int64 `json:"stores"`
	MemRefs      int64 `json:"mem_refs"`
	ICacheMisses int64 `json:"icache_misses"`
	DCacheMisses int64 `json:"dcache_misses"`
	Cached       bool  `json:"cached"`
}

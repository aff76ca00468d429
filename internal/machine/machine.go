// Package machine describes the three evaluation targets of the paper — a
// DEC Alpha-like 64-bit RISC, a Motorola 88100-like 32-bit RISC, and a
// Motorola 68030-like CISC — as cost and capability models. The RTL stays
// target independent; everything the paper attributes to the instruction
// set (no narrow loads on the Alpha, cheap extract but expensive insert on
// the 88100, microcoded bit-field operations on the 68030) enters through
// these tables.
//
// Each machine carries two cost tables. Sched is what the compiler's
// instruction scheduler and the coalescer's profitability analysis believe
// (datasheet latencies); Exec is what the simulated hardware delivers. They
// coincide for the RISCs. For the 68030 the Exec table charges the
// microcode overhead of the bit-field unit that the datasheet timings
// understate, which is how the paper's "slower on every program" result
// arises even though the static profitability analysis predicted a win.
package machine

import "macc/internal/rtl"

// Costs is a latency and occupancy table in cycles. Latency (the named
// fields) is when a consumer may use the result; occupancy is how many
// issue slots the operation holds the pipeline, which models ISAs where one
// RTL operation really expands to an instruction sequence — the paper's
// central example being the Alpha, where a byte load is ldq_u plus an
// extract-and-extend sequence and a byte store is a read-modify-write.
type Costs struct {
	Alu     int // simple integer ops, moves, compares
	Mul     int // integer multiply
	Div     int // integer divide
	Load    map[rtl.Width]int
	Store   map[rtl.Width]int
	Extract int // extract a narrow field from a register
	Insert  int // deposit a narrow field into a register
	Branch  int // taken-branch penalty
	Call    int

	// Occupancy tables; missing entries (or zero values) mean one slot.
	LoadOcc    map[rtl.Width]int
	StoreOcc   map[rtl.Width]int
	ExtractOcc int
	InsertOcc  int
}

// OccOf returns how many issue slots an instruction with opcode op and
// access width w occupies on a pipelined machine.
func (c *Costs) OccOf(op rtl.Op, w rtl.Width) int {
	occ := 1
	switch op {
	case rtl.Load:
		if c.LoadOcc != nil {
			if v := c.LoadOcc[w]; v > 0 {
				occ = v
			}
		}
	case rtl.Store:
		if c.StoreOcc != nil {
			if v := c.StoreOcc[w]; v > 0 {
				occ = v
			}
		}
	case rtl.Extract:
		if c.ExtractOcc > 0 {
			occ = c.ExtractOcc
		}
	case rtl.Insert:
		if c.InsertOcc > 0 {
			occ = c.InsertOcc
		}
	}
	return occ
}

// Of returns the latency of an instruction with opcode op and access width
// w under this table.
func (c *Costs) Of(op rtl.Op, w rtl.Width) int {
	switch op {
	case rtl.Nop:
		return 1
	case rtl.Mul:
		return c.Mul
	case rtl.Div, rtl.Rem:
		return c.Div
	case rtl.Load:
		return c.Load[w]
	case rtl.Store:
		return c.Store[w]
	case rtl.Extract:
		return c.Extract
	case rtl.Insert:
		return c.Insert
	case rtl.Jump, rtl.Branch, rtl.Ret:
		return c.Branch
	case rtl.Call:
		return c.Call
	default:
		return c.Alu
	}
}

// Machine is one target description.
type Machine struct {
	Name string
	// WordBytes is the widest memory access the ISA supports; coalescing
	// never builds a wider reference.
	WordBytes rtl.Width
	// MustAlign requires wide accesses to be naturally aligned; violating
	// it traps in the simulator, which is why the coalescer emits run-time
	// alignment checks.
	MustAlign bool
	// Pipelined selects the pipeline model: a pipelined machine issues one
	// instruction per cycle and hides latency behind independent work,
	// while an unpipelined (microcoded) machine occupies the pipe for the
	// instruction's full cost.
	Pipelined bool
	// ICacheBytes and BytesPerInstr drive the unrolling heuristic and the
	// simulator's loop-thrash penalty: a loop body whose estimated
	// footprint exceeds the I-cache pays ICacheMissPenalty per miss.
	ICacheBytes       int
	BytesPerInstr     int
	ICacheMissPenalty int
	// DCacheBytes enables a direct-mapped data cache model (16-byte
	// lines); zero disables it. Misses stall the pipeline for
	// DCacheMissPenalty cycles. Streaming kernels miss equally with and
	// without coalescing (same lines are touched), which is what keeps the
	// paper's percentages lower than a pure-pipeline model would predict.
	DCacheBytes       int
	DCacheMissPenalty int

	Sched Costs // what the compiler believes
	Exec  Costs // what the simulated hardware delivers
}

// MaxCoalesceFactor returns how many narrow references of width w fit in
// one wide reference on this machine.
func (m *Machine) MaxCoalesceFactor(w rtl.Width) int {
	if w >= m.WordBytes {
		return 1
	}
	return int(m.WordBytes) / int(w)
}

func uniform(v int) map[rtl.Width]int {
	return map[rtl.Width]int{rtl.W1: v, rtl.W2: v, rtl.W4: v, rtl.W8: v}
}

// Alpha models a DEC Alpha 21064-class machine: 64-bit, load/store
// architecture with *no* byte or shortword memory operations. A narrow load
// really executes ldq_u plus an extract-and-sign-extend sequence, and a
// narrow store is a read-modify-write (ldq_u, insert, mask, stq_u); the
// narrow-width costs charge those sequences. Extract and insert themselves
// are single fast instructions (EXTxx/INSxx), which is exactly why
// coalescing pays off so well here.
func Alpha() *Machine {
	sched := Costs{
		Alu: 1, Mul: 6, Div: 30,
		Load:    map[rtl.Width]int{rtl.W1: 6, rtl.W2: 6, rtl.W4: 3, rtl.W8: 3},
		Store:   map[rtl.Width]int{rtl.W1: 8, rtl.W2: 8, rtl.W4: 3, rtl.W8: 3},
		Extract: 1, Insert: 2, Branch: 2, Call: 4,
		// A narrow load is ldq_u + address adjust + extract + extend; a
		// narrow store additionally merges and writes back.
		LoadOcc:  map[rtl.Width]int{rtl.W1: 4, rtl.W2: 4},
		StoreOcc: map[rtl.Width]int{rtl.W1: 5, rtl.W2: 5},
	}
	return &Machine{
		Name:              "alpha",
		WordBytes:         rtl.W8,
		MustAlign:         true,
		Pipelined:         true,
		ICacheBytes:       8 * 1024,
		BytesPerInstr:     4,
		ICacheMissPenalty: 10,
		DCacheBytes:       8 * 1024,
		DCacheMissPenalty: 16,
		Sched:             sched,
		Exec:              sched,
	}
}

// M88100 models a Motorola 88100: 32-bit RISC with byte/halfword loads and
// stores (ld.b, ld.h) and a single-cycle EXT extract instruction, but no
// insert: depositing a field costs a shift/mask/or sequence, charged on
// Insert. That asymmetry reproduces the paper's Table III, where coalescing
// loads wins but coalescing stores loses.
func M88100() *Machine {
	sched := Costs{
		Alu: 1, Mul: 4, Div: 38,
		Load:    uniform(3),
		Store:   uniform(2),
		Extract: 1, Insert: 1, Branch: 2, Call: 4,
		// The data unit sustains one memory operation every other cycle.
		LoadOcc:  uniform(2),
		StoreOcc: uniform(2),
	}
	// The compiler's tables treat a field deposit as one RTL; the hardware
	// has no insert instruction, so it really executes a shift/mask/or
	// sequence. This datasheet-vs-reality gap is how the paper's Table III
	// ends up with the loads+stores column slower than loads-only: the
	// static profitability analysis predicts a small win and applies the
	// transformation, and the measurement shows the loss.
	exec := sched
	exec.Insert = 3
	exec.InsertOcc = 3
	return &Machine{
		Name:              "m88100",
		WordBytes:         rtl.W4,
		MustAlign:         true,
		Pipelined:         true,
		ICacheBytes:       4 * 1024,
		BytesPerInstr:     4,
		ICacheMissPenalty: 8,
		DCacheBytes:       16 * 1024,
		DCacheMissPenalty: 10,
		Sched:             sched,
		Exec:              exec,
	}
}

// M68030 models a Motorola 68030: a microcoded CISC with cheap narrow
// memory operations (a byte access costs the same bus cycle as a long one)
// and bit-field extract/insert instructions (BFEXTU/BFINS) that the
// datasheet prices optimistically but that execute through slow microcode.
// The compiler's tables therefore predict a small win for coalescing while
// the hardware delivers a loss on every program — the paper's §3 result.
func M68030() *Machine {
	sched := Costs{
		Alu: 2, Mul: 28, Div: 56,
		Load:    uniform(4),
		Store:   uniform(4),
		Extract: 1, Insert: 1, Branch: 4, Call: 8,
	}
	exec := sched
	exec.Extract = 8
	exec.Insert = 10
	return &Machine{
		Name:              "m68030",
		WordBytes:         rtl.W4,
		MustAlign:         false, // the 68030 tolerates misaligned accesses
		Pipelined:         false,
		ICacheBytes:       256,
		BytesPerInstr:     4,
		ICacheMissPenalty: 6,
		DCacheBytes:       256,
		DCacheMissPenalty: 6,
		Sched:             sched,
		Exec:              exec,
	}
}

// ByName returns the named machine model.
func ByName(name string) (*Machine, bool) {
	switch name {
	case "alpha":
		return Alpha(), true
	case "m88100":
		return M88100(), true
	case "m68030":
		return M68030(), true
	}
	return nil, false
}

// All returns the three evaluation targets in the paper's order.
func All() []*Machine { return []*Machine{Alpha(), M88100(), M68030()} }

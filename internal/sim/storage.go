package sim

import (
	"sync"

	"macc/internal/rtl"
)

// storage is what a Sim allocates per program and machine: the memory
// arena, the I- and D-cache tag arrays, the static-data table, and the
// decoded image's slabs and name map. NewFlat draws one from
// storagePool and reslices each buffer for the program and machine at hand;
// Release scrubs it and puts it back, so a predecode after a release
// allocates nothing but the Sim.
//
// While pooled, a storage's arena is fully zero (Release zeroes the dirty
// range) and it holds no string or pointer into any program (scrub), so the
// pool keeps no program alive.
type storage struct {
	mem     []byte // the arena; the Sim's Mem is a prefix of it
	icache  []int64
	dcache  []int64
	globals []rtl.Global

	img    image // fns, byName and calls are reused across decodes
	fns    []dFn
	code   []dInstr
	blocks []dBlock
	params []int32
	args   []dOp
}

// storagePool recycles storages between simulators. It holds *storage, so
// a draw-and-release cycle boxes nothing.
var storagePool = sync.Pool{New: func() any { return new(storage) }}

// drawStorage returns a pooled storage, or a fresh one.
func drawStorage() *storage { return storagePool.Get().(*storage) }

// sized returns buf resliced to n elements, or a fresh zeroed slice when buf
// is too small. A reused buffer keeps its old contents: the decoder writes
// every element it hands out, Run initializes the tag arrays, and the arena
// is zero already.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// scrub clears every string and pointer the last simulator stored (global
// names and initializers, function, block and call names, callees, the name
// map) and empties the image, so a simulator that loads no program sees no
// functions. Each buffer is cleared over the length that simulator used; the
// rest was cleared by an earlier scrub or never written.
func (st *storage) scrub() {
	clear(st.globals)
	clear(st.fns)
	clear(st.blocks)
	clear(st.img.fns)
	clear(st.img.calls)
	clear(st.img.byName)
	st.globals, st.fns, st.blocks = st.globals[:0], st.fns[:0], st.blocks[:0]
	st.img.fns, st.img.calls = st.img.fns[:0], st.img.calls[:0]
}

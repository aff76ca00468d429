// Package codec is the versioned binary wire/disk format for the flat IR
// (rtl.FlatProgram). It replaces the printer/parser text round trip in the
// compile cache's disk tier: a warm disk hit decodes straight into the flat
// form with no reparse, which is what the hotpath codec gate measures.
//
// Layout:
//
//	magic "MFP1"
//	uvarint format version (currently 1)
//	sections: uvarint section id, uvarint payload length, payload
//	  1 = symbol table   (once, before any function)
//	  2 = globals        (at most once)
//	  3 = one function   (repeated, in program order)
//	8-byte little-endian FNV-64a checksum over everything before it
//
// Integers are unsigned varints; values that can be negative (registers,
// displacements, constants, block ids) are zigzag varints. Per-instruction
// fields are stored as struct-of-arrays streams so the decoder fills the
// FlatFn arrays with tight per-field loops.
//
// DecodeProgram checks everything — magic, version, checksum, section
// structure, then rtl.(*FlatProgram).Verify, which checks every index and
// every function's structural invariants once, so a decoded image is safe
// to optimize, unflatten and simulate with no further check — and returns
// errors, never panics, on corrupt or truncated input. The fuzz target
// FuzzFlatRoundTrip pins that property.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"macc/internal/rtl"
)

// Version is the current format version; decoders reject anything else.
const Version = 1

var magic = [4]byte{'M', 'F', 'P', '1'}

// Section ids.
const (
	secSyms    = 1
	secGlobals = 2
	secFn      = 3
)

// ErrCorrupt wraps all decode failures so callers can treat any malformed
// buffer uniformly (the cache turns it into a miss, never an error).
var ErrCorrupt = errors.New("codec: corrupt flat program")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// EncodeProgram serializes fp. The result always carries a valid checksum
// trailer and decodes back to an identical FlatProgram.
func EncodeProgram(fp *rtl.FlatProgram) []byte {
	buf := make([]byte, 0, encSizeHint(fp))
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, Version)

	var scratch []byte

	// Symbol table.
	scratch = binary.AppendUvarint(scratch[:0], uint64(len(fp.Syms)))
	for _, s := range fp.Syms {
		scratch = binary.AppendUvarint(scratch, uint64(len(s)))
		scratch = append(scratch, s...)
	}
	buf = appendSection(buf, secSyms, scratch)

	// Globals.
	if len(fp.Globals) > 0 {
		scratch = binary.AppendUvarint(scratch[:0], uint64(len(fp.Globals)))
		for gi := range fp.Globals {
			g := &fp.Globals[gi]
			scratch = binary.AppendUvarint(scratch, uint64(g.Name))
			scratch = binary.AppendVarint(scratch, g.Addr)
			scratch = binary.AppendVarint(scratch, g.Size)
			scratch = binary.AppendUvarint(scratch, uint64(len(g.Init)))
			scratch = append(scratch, g.Init...)
		}
		buf = appendSection(buf, secGlobals, scratch)
	}

	// Functions.
	for fi := range fp.Fns {
		scratch = appendFn(scratch[:0], &fp.Fns[fi])
		buf = appendSection(buf, secFn, scratch)
	}

	return appendChecksum(buf)
}

func encSizeHint(fp *rtl.FlatProgram) int {
	n := 64
	for _, s := range fp.Syms {
		n += len(s) + 2
	}
	for gi := range fp.Globals {
		n += len(fp.Globals[gi].Init) + 16
	}
	for fi := range fp.Fns {
		f := &fp.Fns[fi]
		n += 32 + 12*len(f.Blocks) + 14*f.NumInstrs() + 8*len(f.Args) + 8*len(f.Calls)
	}
	return n
}

func appendSection(buf []byte, id uint64, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, id)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

func appendChecksum(buf []byte) []byte {
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64())
}

func appendFn(b []byte, f *rtl.FlatFn) []byte {
	b = binary.AppendUvarint(b, uint64(f.Name))
	b = binary.AppendUvarint(b, uint64(len(f.Params)))
	for _, p := range f.Params {
		b = binary.AppendVarint(b, int64(p))
	}
	b = binary.AppendVarint(b, f.FrameBytes)
	b = binary.AppendVarint(b, int64(f.FrameReg))
	b = binary.AppendVarint(b, int64(f.NextReg))
	b = binary.AppendVarint(b, int64(f.NextBlk))

	b = binary.AppendUvarint(b, uint64(len(f.Blocks)))
	for bi := range f.Blocks {
		blk := &f.Blocks[bi]
		b = binary.AppendVarint(b, int64(blk.ID))
		b = binary.AppendUvarint(b, uint64(blk.Name))
		b = binary.AppendUvarint(b, uint64(blk.InstrEnd-blk.InstrStart))
	}

	n := f.NumInstrs()
	for i := 0; i < n; i++ {
		b = append(b, byte(f.Op[i]))
	}
	for i := 0; i < n; i++ {
		b = binary.AppendVarint(b, int64(f.Dst[i]))
	}
	b = appendOperands(b, f.A)
	b = appendOperands(b, f.B)
	b = appendOperands(b, f.C)
	for i := 0; i < n; i++ {
		b = append(b, byte(f.Width[i]))
	}
	b = appendBitset(b, f.Signed)
	for i := 0; i < n; i++ {
		b = binary.AppendVarint(b, f.Disp[i])
	}
	for i := 0; i < n; i++ {
		b = binary.AppendVarint(b, int64(f.Target[i]))
	}
	for i := 0; i < n; i++ {
		b = binary.AppendVarint(b, int64(f.Else[i]))
	}

	b = binary.AppendUvarint(b, uint64(len(f.Calls)))
	prev := int32(-1)
	for i := 0; i < n; i++ {
		ci := f.CallIdx[i]
		if ci < 0 {
			continue
		}
		c := &f.Calls[ci]
		b = binary.AppendUvarint(b, uint64(int32(i)-prev)) // delta-coded instr index
		prev = int32(i)
		b = binary.AppendUvarint(b, uint64(c.Callee))
		b = binary.AppendUvarint(b, uint64(c.ArgEnd-c.ArgStart))
		b = appendOperands(b, f.Args[c.ArgStart:c.ArgEnd])
	}
	return b
}

func appendOperands(b []byte, ops []rtl.Operand) []byte {
	for _, o := range ops {
		b = append(b, byte(o.Kind))
		switch o.Kind {
		case rtl.KindReg:
			b = binary.AppendVarint(b, int64(o.Reg))
		case rtl.KindConst:
			b = binary.AppendVarint(b, o.Const)
		}
	}
	return b
}

func appendBitset(b []byte, bits []bool) []byte {
	nb := (len(bits) + 7) / 8
	start := len(b)
	for i := 0; i < nb; i++ {
		b = append(b, 0)
	}
	for i, v := range bits {
		if v {
			b[start+i/8] |= 1 << (i % 8)
		}
	}
	return b
}

// reader is a bounds-checked cursor over the encoded buffer. All failures
// latch into err; callers check once per logical unit.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corruptf(format, args...)
	}
}

// uvarint and varint keep their single-byte fast path small enough to
// inline at every call site; multi-byte values and error states take the
// out-of-line slow path. Single-byte values dominate real encodings.

func (r *reader) uvarint() uint64 {
	// The fast path skips the latched-error check to stay under the inline
	// budget: after an error it may decode garbage, but every consumer that
	// sizes an allocation or trusts a value re-checks r.err first.
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		v := uint64(r.b[r.off])
		r.off++
		return v
	}
	return r.uvarintSlow()
}

func (r *reader) uvarintSlow() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		v := int64(r.b[r.off])
		r.off++
		return v>>1 ^ -(v & 1) // zigzag decode
	}
	return r.varintSlow()
}

func (r *reader) varintSlow() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated varint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("truncated %d-byte field at %d", n, r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

// count validates an element count against the remaining bytes, with each
// element costing at least min bytes — the guard that stops a hostile
// length prefix from triggering a giant allocation.
func (r *reader) count(v uint64, min int) int {
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if v > uint64((len(r.b)-r.off)/min)+1 {
		r.fail("count %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

// DecodeProgram parses an EncodeProgram buffer back into a FlatProgram that
// has passed Verify.
func DecodeProgram(data []byte) (*rtl.FlatProgram, error) {
	if len(data) < len(magic)+1+8 {
		return nil, corruptf("short buffer (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(trailer); got != want {
		return nil, corruptf("checksum mismatch: %016x != %016x", got, want)
	}
	if string(body[:4]) != string(magic[:]) {
		return nil, corruptf("bad magic %q", body[:4])
	}
	r := &reader{b: body, off: 4}
	if v := r.uvarint(); r.err == nil && v != Version {
		return nil, corruptf("unsupported version %d", v)
	}

	fp := &rtl.FlatProgram{}
	sawSyms, sawGlobals := false, false
	for r.err == nil && r.off < len(r.b) {
		id := r.uvarint()
		plen := r.uvarint()
		payload := r.bytes(int(plen))
		if r.err != nil {
			break
		}
		sr := &reader{b: payload}
		switch id {
		case secSyms:
			if sawSyms {
				r.fail("duplicate symbol section")
				break
			}
			sawSyms = true
			decodeSyms(sr, fp)
		case secGlobals:
			if sawGlobals {
				r.fail("duplicate globals section")
				break
			}
			sawGlobals = true
			decodeGlobals(sr, fp)
		case secFn:
			fp.Fns = append(fp.Fns, rtl.FlatFn{})
			decodeFn(sr, &fp.Fns[len(fp.Fns)-1])
		default:
			r.fail("unknown section id %d", id)
		}
		if sr.err != nil {
			return nil, sr.err
		}
		if sr.off != len(sr.b) {
			return nil, corruptf("section %d has %d trailing bytes", id, len(sr.b)-sr.off)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if !sawSyms {
		return nil, corruptf("missing symbol section")
	}
	if err := fp.Verify(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return fp, nil
}

func decodeSyms(r *reader, fp *rtl.FlatProgram) {
	n := r.count(r.uvarint(), 1)
	fp.Syms = make([]string, 0, n)
	// Copy every name into one backing string and hand out substrings, so
	// the symbol table costs two allocations instead of one per name.
	buf := make([]byte, 0, len(r.b)-r.off)
	ends := make([]int, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		l := r.uvarint()
		buf = append(buf, r.bytes(int(l))...)
		ends = append(ends, len(buf))
	}
	all := string(buf)
	start := 0
	for _, end := range ends {
		fp.Syms = append(fp.Syms, all[start:end])
		start = end
	}
}

func decodeGlobals(r *reader, fp *rtl.FlatProgram) {
	n := r.count(r.uvarint(), 4)
	fp.Globals = make([]rtl.FlatGlobal, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		g := rtl.FlatGlobal{
			Name: rtl.Sym(r.uvarint()),
			Addr: r.varint(),
			Size: r.varint(),
		}
		l := r.uvarint()
		g.Init = append([]byte(nil), r.bytes(int(l))...)
		fp.Globals = append(fp.Globals, g)
	}
}

func decodeFn(r *reader, f *rtl.FlatFn) {
	f.Name = rtl.Sym(r.uvarint())
	np := r.count(r.uvarint(), 1)
	f.Params = make([]rtl.Reg, 0, np)
	for i := 0; i < np && r.err == nil; i++ {
		f.Params = append(f.Params, rtl.Reg(r.varint()))
	}
	f.FrameBytes = r.varint()
	f.FrameReg = rtl.Reg(r.varint())
	f.NextReg = rtl.Reg(r.varint())
	f.NextBlk = int32(r.varint())

	nblk := r.count(r.uvarint(), 3)
	f.Blocks = make([]rtl.FlatBlock, 0, nblk)
	total := 0
	for i := 0; i < nblk && r.err == nil; i++ {
		id := int32(r.varint())
		name := rtl.Sym(r.uvarint())
		ni := r.count(r.uvarint(), 1) // each instruction is >= 1 byte of opcode
		blk := rtl.FlatBlock{
			ID: id, Name: name,
			InstrStart: int32(total), InstrEnd: int32(total + ni),
		}
		total += ni
		if total > len(r.b) { // opcodes alone would overrun the section
			r.fail("instruction count %d exceeds section size", total)
			return
		}
		f.Blocks = append(f.Blocks, blk)
	}
	if r.err != nil {
		return
	}
	n := total

	ops := r.bytes(n)
	f.Op = make([]rtl.Op, n)
	for i, o := range ops {
		f.Op[i] = rtl.Op(o)
	}
	f.Dst = make([]rtl.Reg, n)
	varints(r, f.Dst)
	// One slab backs all three operand arrays; the capacity caps make any
	// later append copy out instead of clobbering its neighbour.
	slab := make([]rtl.Operand, 3*n)
	f.A = slab[:n:n]
	f.B = slab[n : 2*n : 2*n]
	f.C = slab[2*n : 3*n : 3*n]
	decodeOperandsInto(r, f.A)
	decodeOperandsInto(r, f.B)
	decodeOperandsInto(r, f.C)
	widths := r.bytes(n)
	f.Width = make([]rtl.Width, n)
	for i, w := range widths {
		f.Width[i] = rtl.Width(w)
	}
	f.Signed = decodeBitset(r, n)
	f.Disp = make([]int64, n)
	varints(r, f.Disp)
	f.Target = make([]int32, n)
	varints(r, f.Target)
	f.Else = make([]int32, n)
	varints(r, f.Else)

	f.CallIdx = make([]int32, n)
	for i := range f.CallIdx {
		f.CallIdx[i] = -1
	}
	ncall := r.count(r.uvarint(), 3)
	f.Calls = make([]rtl.FlatCall, 0, ncall)
	prev := int64(-1)
	for ci := 0; ci < ncall && r.err == nil; ci++ {
		idx := prev + int64(r.uvarint())
		if r.err != nil {
			return
		}
		if idx <= prev || idx >= int64(n) {
			r.fail("call instruction index %d out of order or range", idx)
			return
		}
		prev = idx
		callee := rtl.Sym(r.uvarint())
		na := r.count(r.uvarint(), 1)
		start := int32(len(f.Args))
		args := decodeOperands(r, na)
		f.Args = append(f.Args, args...)
		f.Calls = append(f.Calls, rtl.FlatCall{
			Callee: callee, ArgStart: start, ArgEnd: int32(len(f.Args)),
		})
		f.CallIdx[idx] = int32(ci)
	}
}

// varints bulk-decodes len(dst) zigzag varints with a local cursor, so the
// per-value cost is a branch and two shifts instead of a method call. On a
// truncated stream it latches the error and leaves the tail zeroed, exactly
// like a per-value r.varint() loop.
func varints[T ~int32 | ~int64](r *reader, dst []T) {
	if r.err != nil {
		return
	}
	b, off := r.b, r.off
	for i := range dst {
		var v int64
		if off < len(b) && b[off] < 0x80 {
			v = int64(b[off])
			v = v>>1 ^ -(v & 1)
			off++
		} else {
			vv, m := binary.Varint(b[off:])
			if m <= 0 {
				r.off = off
				r.fail("truncated varint at %d", off)
				return
			}
			v = vv
			off += m
		}
		dst[i] = T(v)
	}
	r.off = off
}

func decodeOperands(r *reader, n int) []rtl.Operand {
	out := make([]rtl.Operand, n)
	decodeOperandsInto(r, out)
	return out
}

func decodeOperandsInto(r *reader, out []rtl.Operand) {
	if r.err != nil {
		return
	}
	n := len(out)
	b, off := r.b, r.off
	for i := 0; i < n; i++ {
		if off >= len(b) {
			r.off = off
			r.fail("truncated operand stream")
			return
		}
		kind := rtl.OperandKind(b[off])
		off++
		switch kind {
		case rtl.KindNone:
		case rtl.KindReg, rtl.KindConst:
			var v int64
			if off < len(b) && b[off] < 0x80 {
				v = int64(b[off])
				v = v>>1 ^ -(v & 1)
				off++
			} else {
				vv, m := binary.Varint(b[off:])
				if m <= 0 {
					r.off = off
					r.fail("truncated varint at %d", off)
					return
				}
				v = vv
				off += m
			}
			if kind == rtl.KindReg {
				out[i] = rtl.Operand{Kind: rtl.KindReg, Reg: rtl.Reg(v)}
			} else {
				out[i] = rtl.Operand{Kind: rtl.KindConst, Const: v}
			}
		default:
			r.off = off
			r.fail("bad operand kind %d", kind)
			return
		}
	}
	r.off = off
	return
}

func decodeBitset(r *reader, n int) []bool {
	raw := r.bytes((n + 7) / 8)
	out := make([]bool, n)
	if r.err != nil {
		return out
	}
	for i := range out {
		out[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return out
}

package rtl

import "sync"

// FlatSnapshot is the flat pipeline's rollback journal: a last-known-good
// image of one function captured by copying its dense arrays — no block
// graph cloning, no per-instruction pointers, just range copies. Restore
// writes the image back over the live function; Update recaptures after a
// pass succeeds.
//
// The snapshot also records the program symbol-table length: symbols are
// append-only, so rolling back a failed pass that interned fresh block
// labels is a truncation, keeping the table byte-identical to a run in
// which the pass never executed.
//
// Snapshots are pooled: NewFlatSnapshot draws one and captures into the
// buffers an earlier function left in it, and Release puts it back.
type FlatSnapshot struct {
	p     *FlatProgram
	fi    int
	img   FlatFn
	nsyms int
}

// snapshotPool recycles released snapshots with their image buffers. The
// image holds only values (symbols are indices), so a pooled snapshot
// keeps no program alive once Release drops its program pointer.
var snapshotPool = sync.Pool{New: func() any { return new(FlatSnapshot) }}

// NewFlatSnapshot captures function fi of p into a pooled snapshot. A
// caller that is done with it may Release it.
func NewFlatSnapshot(p *FlatProgram, fi int) *FlatSnapshot {
	s := snapshotPool.Get().(*FlatSnapshot)
	s.p, s.fi = p, fi
	s.Update()
	return s
}

// Release returns the snapshot to the pool. It must not be used afterwards.
func (s *FlatSnapshot) Release() {
	s.p = nil
	snapshotPool.Put(s)
}

// Update recaptures the live function as the new last-known-good image.
// After the first capture, recapturing a function that did not grow
// allocates nothing.
func (s *FlatSnapshot) Update() {
	copyFlatFn(&s.img, &s.p.Fns[s.fi])
	s.nsyms = len(s.p.Syms)
}

// Restore rolls the live function back to the captured image and truncates
// any symbols interned since the capture. The image is copied, not handed
// over, so a snapshot survives repeated restores.
func (s *FlatSnapshot) Restore() {
	copyFlatFn(&s.p.Fns[s.fi], &s.img)
	s.p.Syms = s.p.Syms[:s.nsyms]
}

// copyFlatFn makes dst a copy of src, field by field, reusing dst's own
// buffers where they are large enough. A buffer that is too small is
// replaced, never grown in place past its capacity, so a slice carved from
// a shared slab (the decoder caps each one) cannot overwrite its neighbour.
func copyFlatFn(dst, src *FlatFn) {
	dst.Name = src.Name
	dst.Params = append(dst.Params[:0], src.Params...)
	dst.FrameBytes = src.FrameBytes
	dst.FrameReg = src.FrameReg
	dst.NextReg = src.NextReg
	dst.NextBlk = src.NextBlk
	dst.Blocks = append(dst.Blocks[:0], src.Blocks...)
	dst.Op = append(dst.Op[:0], src.Op...)
	dst.Dst = append(dst.Dst[:0], src.Dst...)
	dst.A = append(dst.A[:0], src.A...)
	dst.B = append(dst.B[:0], src.B...)
	dst.C = append(dst.C[:0], src.C...)
	dst.Width = append(dst.Width[:0], src.Width...)
	dst.Signed = append(dst.Signed[:0], src.Signed...)
	dst.Disp = append(dst.Disp[:0], src.Disp...)
	dst.Target = append(dst.Target[:0], src.Target...)
	dst.Else = append(dst.Else[:0], src.Else...)
	dst.CallIdx = append(dst.CallIdx[:0], src.CallIdx...)
	dst.Calls = append(dst.Calls[:0], src.Calls...)
	dst.Args = append(dst.Args[:0], src.Args...)
}

// Package dataflow implements the classical dataflow analyses the optimizer
// and the coalescer rely on: liveness of virtual registers, definition/use
// accounting, and single-definition queries used by the propagation passes.
package dataflow

import "math/bits"

// BitSet is a dense bit vector over virtual register numbers.
type BitSet []uint64

// NewBitSet returns a set able to hold n elements.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set adds i to the set.
func (s BitSet) Set(i int) { s[i/64] |= 1 << uint(i%64) }

// Clear removes i from the set.
func (s BitSet) Clear(i int) { s[i/64] &^= 1 << uint(i%64) }

// Has reports whether i is in the set.
func (s BitSet) Has(i int) bool {
	w := i / 64
	if w >= len(s) {
		return false
	}
	return s[w]&(1<<uint(i%64)) != 0
}

// OrInto ors o into s, reporting whether s changed.
func (s BitSet) OrInto(o BitSet) bool {
	changed := false
	for i := range o {
		if i >= len(s) {
			break
		}
		nv := s[i] | o[i]
		if nv != s[i] {
			s[i] = nv
			changed = true
		}
	}
	return changed
}

// Copy overwrites s with o.
func (s BitSet) Copy(o BitSet) {
	copy(s, o)
	for i := len(o); i < len(s); i++ {
		s[i] = 0
	}
}

// Count returns the number of elements in the set.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// ForEach calls fn for every element of the set in increasing order.
func (s BitSet) ForEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			fn(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

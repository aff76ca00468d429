// Package opt implements the machine-independent clean-up optimizations the
// vpo back end applies around memory access coalescing: constant folding and
// propagation, copy propagation, algebraic simplification, local common
// subexpression elimination, dead code elimination, and control-flow
// tidying. They matter here because the coalescer's offset and induction
// analyses expect addresses in a canonical base+displacement form that these
// passes produce.
package opt

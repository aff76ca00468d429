package core

import (
	"macc/internal/rtl"
)

// hazardResult classifies a chunk after the Figure 4 safety walk.
type hazardResult uint8

const (
	hazardSafe hazardResult = iota
	// hazardNeedsChecks means the only obstacles are potential aliases
	// between different partitions, resolvable by run-time checks.
	hazardNeedsChecks
	hazardUnsafe
)

// IsHazard is the paper's Figure 4 analysis. For a load chunk, the wide
// load is inserted before the first (dominating) narrow load, so every
// instruction between that position and the later narrow loads is examined;
// for a store chunk, the wide store lands after the last (dominated) narrow
// store, so the span between the first store and that position is examined.
// Within the span:
//
//   - a same-partition store overlapping a coalesced load's slot would make
//     a later narrow load see a value the earlier wide load missed: unsafe;
//   - a same-partition load reading a slot whose narrow store was deferred
//     into the wide store would read stale memory: unsafe;
//   - a same-partition store overlapping the deferred store range would be
//     clobbered out of order: unsafe;
//   - any reference from a different partition may alias: resolvable only
//     at run time, so the partition pair is recorded for check generation;
//   - a call, or a modification of the base register, is unsafe.
//
// The result is hazardSafe, hazardNeedsChecks (with c.needsAliasCheck
// filled), or hazardUnsafe; the second return is the machine-readable
// verdict token ("intervening-store", "unknown-base", ...) that feeds the
// optimization remark for the rejection.
func IsHazard(body []*rtl.Instr, c *chunk, parts map[rtl.Reg]*partition, info flatIV) (hazardResult, string) {
	lo, hi := c.firstIndex(), c.lastIndex()
	inChunk := make(map[*rtl.Instr]bool, len(c.refs))
	for _, r := range c.refs {
		inChunk[r.in] = true
	}
	rangeLo, rangeHi := c.minDisp, c.minDisp+int64(c.wide)
	result := hazardSafe

	for i := lo; i <= hi; i++ {
		in := body[i]
		if inChunk[in] {
			continue
		}
		switch in.Op {
		case rtl.Call:
			return hazardUnsafe, "intervening-call"
		case rtl.Load:
			if c.isLoad {
				continue // loads never conflict with a wide load
			}
			base, ok := in.A.IsReg()
			if !ok {
				return hazardUnsafe, "unknown-base"
			}
			if base == c.part.base {
				// Same partition: exact displacement disambiguation.
				if in.Disp < rangeHi && in.Disp+int64(in.Width) > rangeLo {
					return hazardUnsafe, "intervening-load"
				}
			} else {
				if !knownPartition(base, parts, info) {
					return hazardUnsafe, "unknown-base"
				}
				c.needsAliasCheck[base] = true
				result = hazardNeedsChecks
			}
		case rtl.Store:
			base, ok := in.A.IsReg()
			if !ok {
				return hazardUnsafe, "unknown-base"
			}
			if base == c.part.base {
				if in.Disp < rangeHi && in.Disp+int64(in.Width) > rangeLo {
					return hazardUnsafe, "intervening-store"
				}
			} else {
				if !knownPartition(base, parts, info) {
					return hazardUnsafe, "unknown-base"
				}
				c.needsAliasCheck[base] = true
				result = hazardNeedsChecks
			}
		default:
			// IsModifiedBase: redefining the base register inside the span
			// breaks the displacement arithmetic.
			if d, ok := in.Def(); ok && d == c.part.base {
				return hazardUnsafe, "base-modified"
			}
		}
	}
	// The wide reference itself must not extend past a base modification
	// elsewhere in the block between span edges; base updates outside the
	// span (the induction step at the block's end) are fine because every
	// replaced reference sits inside the span.
	if result == hazardNeedsChecks {
		return result, "alias-needs-runtime-check"
	}
	return result, "safe"
}

// knownPartition reports whether the base register belongs to an analyzable
// partition (invariant or basic IV), i.e. run-time range checks can be
// generated for it.
func knownPartition(base rtl.Reg, parts map[rtl.Reg]*partition, info flatIV) bool {
	if _, ok := parts[base]; ok {
		return true
	}
	if info.Invariant(base) {
		return true
	}
	_, isIV := info.IVStep(base)
	return isIV
}

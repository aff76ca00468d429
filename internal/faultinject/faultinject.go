// Package faultinject provides deterministic, seedable fault injectors that
// sabotage optimization passes on purpose: they wrap a pipeline.FlatPass so
// that after the real pass runs, the function is corrupted (or the pass
// panics). The injectors exist to prove the hardened pipeline's guarantees —
// every injected fault must be caught by the per-pass checkpoint, rolled
// back to behaviour bit-identical with the unoptimized build, and attributed
// to the sabotaged pass by pipeline.Bisect.
package faultinject

import (
	"fmt"
	"math/rand"

	"macc/internal/pipeline"
	"macc/internal/rtl"
)

// Kind selects the fault to inject.
type Kind int

const (
	// Panic makes the pass panic after running.
	Panic Kind = iota
	// ClobberReg rewrites one source operand to a register outside the
	// function's pool (caught by the verifier's register check).
	ClobberReg
	// DropTerminator deletes one block's terminator instruction (caught
	// by the verifier's block-shape check).
	DropTerminator
	// RetargetBranch points one control transfer at a block that does not
	// belong to the function (caught by the verifier's edge check).
	RetargetBranch
	// FlipOp swaps one arithmetic/compare opcode for its opposite
	// (Add<->Sub, SetLT<->SetGE, ...). The result still verifies — this
	// is a silent miscompile, visible only to differential execution, and
	// exercises the behavioural predicates of pipeline.Bisect.
	FlipOp
)

var kindNames = map[Kind]string{
	Panic:          "panic",
	ClobberReg:     "clobber-reg",
	DropTerminator: "drop-terminator",
	RetargetBranch: "retarget-branch",
	FlipOp:         "flip-op",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists every injectable fault.
func Kinds() []Kind {
	return []Kind{Panic, ClobberReg, DropTerminator, RetargetBranch, FlipOp}
}

// ParseKind resolves a fault name as printed by Kind.String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown fault kind %q (want panic, clobber-reg, drop-terminator, retarget-branch, or flip-op)", s)
}

// Injector sabotages the named pass. The zero Seed is valid; equal seeds
// pick the same victim instruction, so failures reproduce exactly.
type Injector struct {
	Pass string // name of the pass to sabotage; "" sabotages every pass
	Kind Kind
	Seed int64

	fired bool
}

// Fired reports whether the injector actually corrupted (or panicked) at
// least one function. It stays false when the sabotaged pass never ran or
// the function had no instruction eligible for the chosen fault.
func (in *Injector) Fired() bool { return in.fired }

// Hook returns a pass wrapper suitable for macc's Config.WrapPass: passes
// other than the target are returned unchanged.
func (in *Injector) Hook() func(pipeline.FlatPass) pipeline.FlatPass {
	return in.WrapFlat
}

// WrapFlat returns p with the fault appended to its Run step, expressed as
// a mutation of the flat arrays. The pass keeps its name and OnSuccess hook,
// so a caught fault suppresses the pass's side records exactly as a real
// pass bug would.
func (in *Injector) WrapFlat(p pipeline.FlatPass) pipeline.FlatPass {
	if in.Pass != "" && p.Name != in.Pass {
		return p
	}
	inner := p.Run
	p.Run = func(fp *rtl.FlatProgram, fi int) error {
		if inner != nil {
			if err := inner(fp, fi); err != nil {
				return err
			}
		}
		in.applyFlat(fp, fi)
		return nil
	}
	return p
}

// applyFlat corrupts function fi of fp (or panics) according to the
// injector's kind, mutating the flat arrays directly.
func (in *Injector) applyFlat(fp *rtl.FlatProgram, fi int) {
	f := &fp.Fns[fi]
	rng := rand.New(rand.NewSource(in.Seed))
	switch in.Kind {
	case Panic:
		in.fired = true
		panic(fmt.Sprintf("faultinject: injected panic in %s", fp.Syms[f.Name]))
	case ClobberReg:
		var cands []*rtl.Operand
		for i := int32(0); i < int32(f.NumInstrs()); i++ {
			for k, n := 0, f.NumSrcs(i); k < n; k++ {
				if o := f.Src(i, k); o.Kind == rtl.KindReg {
					cands = append(cands, o)
				}
			}
		}
		if len(cands) == 0 {
			return
		}
		cands[rng.Intn(len(cands))].Reg = rtl.Reg(f.NumRegs() + 7)
		in.fired = true
	case DropTerminator:
		bi := int32(rng.Intn(len(f.Blocks)))
		b := &f.Blocks[bi]
		if b.InstrEnd == b.InstrStart {
			return
		}
		f.SpliceInstrs(bi, b.InstrEnd-b.InstrStart-1, 1, nil)
		in.fired = true
	case RetargetBranch:
		var cands []int32
		for i := int32(0); i < int32(f.NumInstrs()); i++ {
			if f.Op[i] == rtl.Jump || f.Op[i] == rtl.Branch {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return
		}
		// A block index past the table is the flat phantom block.
		f.Target[cands[rng.Intn(len(cands))]] = int32(len(f.Blocks)) + 7
		in.fired = true
	case FlipOp:
		flip := map[rtl.Op]rtl.Op{
			rtl.Add: rtl.Sub, rtl.Sub: rtl.Add,
			rtl.SetLT: rtl.SetGE, rtl.SetGE: rtl.SetLT,
			rtl.SetEQ: rtl.SetNE, rtl.SetNE: rtl.SetEQ,
		}
		var cands []int32
		for i := int32(0); i < int32(f.NumInstrs()); i++ {
			if _, ok := flip[f.Op[i]]; ok {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return
		}
		victim := cands[rng.Intn(len(cands))]
		f.Op[victim] = flip[f.Op[victim]]
		in.fired = true
	}
}

package pipeline

import (
	"fmt"
	"hash/fnv"

	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/sim"
)

// Predicate judges function fi of fp as a prefix of the pass list left it.
// A nil return means the prefix is healthy; an error describes the failure
// (simulator trap, behavioural divergence, ...). The predicate reads fp and
// must not change it.
type Predicate func(fp *rtl.FlatProgram, fi int) error

// BisectResult identifies the first culprit pass found by Bisect.
type BisectResult struct {
	// Index is the position of the culprit in the pass list, or -1 when
	// the full pipeline satisfies the predicate.
	Index int
	// Pass is the culprit's name ("" when Index is -1).
	Pass string
	// Err is the failure observed with the culprit included.
	Err error
}

// Found reports whether a culprit was identified.
func (r BisectResult) Found() bool { return r.Index >= 0 }

func (r BisectResult) String() string {
	if !r.Found() {
		return "bisect: no culprit pass (full pipeline is healthy)"
	}
	return fmt.Sprintf("bisect: first culprit is pass %d %q: %v", r.Index, r.Pass, r.Err)
}

// Bisect binary-searches the pass list for the first pass whose inclusion
// makes the predicate fail, in the style of LLVM's -opt-bisect-limit and
// bugpoint. Function fi of fp must be unoptimized. Each probe restores it
// from one snapshot (the rollback RunFlat uses), runs a prefix with RunFlat
// fail-fast (a panic or verifier rejection inside the prefix counts as a
// failure), then applies the predicate to fp as the prefix left it. Bisect
// returns with fi restored. Bisection assumes the usual monotonicity: once
// the culprit has run, longer prefixes stay bad.
//
// An error is returned only when bisection itself cannot proceed, i.e. the
// predicate already fails on the unoptimized function.
func Bisect(fp *rtl.FlatProgram, fi int, passes []FlatPass, bad Predicate) (BisectResult, error) {
	orig := rtl.NewFlatSnapshot(fp, fi)
	defer func() {
		orig.Restore()
		orig.Release()
	}()
	probe := func(k int) error {
		orig.Restore()
		if err := RunFlat(fp, fi, passes[:k], Options{Strict: true}); err != nil {
			return err
		}
		return bad(fp, fi)
	}
	if err := probe(0); err != nil {
		return BisectResult{Index: -1}, fmt.Errorf("bisect: predicate fails before any pass runs: %w", err)
	}
	hiErr := probe(len(passes))
	if hiErr == nil {
		return BisectResult{Index: -1}, nil
	}
	lo, hi := 0, len(passes) // invariant: probe(lo) good, probe(hi) bad
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if err := probe(mid); err != nil {
			hi, hiErr = mid, err
		} else {
			lo = mid
		}
	}
	return BisectResult{Index: hi - 1, Pass: passes[hi-1].Name, Err: hiErr}, nil
}

// Behavior is BehaviorFlat of prog's flat image. A program Flatten rejects
// returns the flatten error.
func Behavior(prog *rtl.Program, m *machine.Machine, memBytes int, entry string, argSets [][]int64) (string, error) {
	fp, err := rtl.Flatten(prog)
	if err != nil {
		return "", err
	}
	return BehaviorFlat(fp, m, memBytes, entry, argSets)
}

// BehaviorFlat fingerprints the observable behaviour of entry in fp: for
// each argument set it runs the simulator over a deterministically seeded
// memory image and folds the return value and final memory into the
// fingerprint. Two programs with equal fingerprints returned the same values
// and left memory bit-identical on every run; any simulator trap is returned
// as an error. This is the divergence oracle differential predicates are
// built on.
func BehaviorFlat(fp *rtl.FlatProgram, m *machine.Machine, memBytes int, entry string, argSets [][]int64) (string, error) {
	h := fnv.New64a()
	for _, args := range argSets {
		s := sim.NewFlat(fp, m, memBytes)
		s.Fuel = 1 << 26
		for i := range s.Mem {
			s.Mem[i] = byte(i * 7)
		}
		res, err := s.Run(entry, args...)
		if err != nil {
			return "", fmt.Errorf("args %v: %w", args, err)
		}
		fmt.Fprintf(h, "%v->%d;", args, res.Ret)
		h.Write(s.Mem)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

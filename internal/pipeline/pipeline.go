// Package pipeline is the hardened pass manager for the optimizer: it runs
// a sequence of named transformation passes over one function of a flat
// (struct-of-arrays) RTL program with per-pass panic recovery, a post-pass
// verification checkpoint, and rollback to the last-known-good snapshot when
// a pass misbehaves.
//
// The design mirrors the paper's Figure-5 philosophy at the level of the
// compiler itself: every unsafe transformation is guarded by a check, and
// when the check fails the system falls back to the safe version (the
// function as it stood before the pass) instead of dying. In the default,
// non-strict mode a faulty pass therefore degrades a compile — the remaining
// safe passes still run, and the incident is recorded in a Diagnostics
// report — while Strict mode restores classic fail-fast behaviour.
package pipeline

import (
	"fmt"
	"runtime/debug"
	"strings"

	"macc/internal/rtl"
	"macc/internal/telemetry"
)

// FlatPass is one named transformation stage over the flat (struct-of-arrays)
// form of one function.
type FlatPass struct {
	// Name identifies the stage in diagnostics, dumps, and bisection.
	Name string
	// Run applies the transformation to function fi of fp in place. A
	// returned error (or a panic, or a subsequent verifier rejection) marks
	// the pass as failed.
	Run func(fp *rtl.FlatProgram, fi int) error
	// OnSuccess, when non-nil, is called only after the pass has run AND
	// the verification checkpoint has accepted the result. Side records
	// (coalescing reports, unroll factors) belong here so a rolled-back
	// pass leaves no trace of work that was undone.
	OnSuccess func()
}

// Options configures a RunFlat.
type Options struct {
	// Strict makes the first pass failure abort the run with a *PassError
	// (today's fail-fast behaviour). The default rolls the function back
	// and continues with the remaining passes.
	Strict bool
	// OnPass, when non-nil, observes function fi of fp after each
	// successful pass (the -dump hook).
	OnPass func(name string, fp *rtl.FlatProgram, fi int)
	// Diags, when non-nil, collects an Incident for every pass that was
	// rolled back.
	Diags *Diagnostics
	// Recorder, when non-nil, receives one telemetry span per pass run
	// (wall time, IR instruction/block deltas, rollback linkage) and
	// commits or retracts the remarks and metric deltas the pass staged
	// while running.
	Recorder *telemetry.Recorder
}

// PassError describes a pass failure: a recovered panic, a pass-returned
// error, or a verification rejection of the pass's output.
type PassError struct {
	Pass      string // pass name
	Fn        string // function being compiled
	Recovered any    // non-nil when the pass panicked
	Stack     []byte // goroutine stack at the panic, when Recovered != nil
	Err       error  // pass-returned or verifier error, when Recovered == nil
}

func (e *PassError) Error() string {
	if e.Recovered != nil {
		return fmt.Sprintf("pass %s on %s: panic: %v", e.Pass, e.Fn, e.Recovered)
	}
	return fmt.Sprintf("pass %s on %s: %v", e.Pass, e.Fn, e.Err)
}

func (e *PassError) Unwrap() error { return e.Err }

// Incident is one rolled-back pass failure in a degraded compile.
type Incident struct {
	Pass string
	Fn   string
	Err  *PassError
}

// Diagnostics accumulates the incidents of one compilation. A compile with
// an empty Diagnostics ran every pass cleanly; a non-empty one completed in
// degraded mode (the named passes were undone, the rest applied).
type Diagnostics struct {
	Incidents []Incident
}

// Degraded reports whether any pass was rolled back.
func (d *Diagnostics) Degraded() bool { return d != nil && len(d.Incidents) > 0 }

// FailedPasses returns the distinct names of passes that were rolled back,
// in first-failure order.
func (d *Diagnostics) FailedPasses() []string {
	if d == nil {
		return nil
	}
	seen := make(map[string]bool)
	var names []string
	for _, in := range d.Incidents {
		if !seen[in.Pass] {
			seen[in.Pass] = true
			names = append(names, in.Pass)
		}
	}
	return names
}

// String renders a one-line-per-incident report.
func (d *Diagnostics) String() string {
	if !d.Degraded() {
		return "clean"
	}
	var sb strings.Builder
	for _, in := range d.Incidents {
		fmt.Fprintf(&sb, "degraded: %s (rolled back)\n", in.Err)
	}
	return sb.String()
}

// RunFlat executes the passes over function fi of fp. Each pass runs under
// panic recovery and is followed by a VerifyFn checkpoint. On failure the
// function is restored from the flat snapshot advanced after the last good
// pass (a range copy of the dense arrays); in Strict mode the *PassError is
// returned instead and the function is left rolled back to that same
// snapshot.
func RunFlat(fp *rtl.FlatProgram, fi int, passes []FlatPass, opts Options) error {
	f := &fp.Fns[fi]
	fnName := fp.Syms[f.Name]
	good := rtl.NewFlatSnapshot(fp, fi)
	defer good.Release()
	for _, p := range passes {
		if opts.Recorder != nil {
			opts.Recorder.BeginPass(p.Name, fnName, f.NumInstrs(), len(f.Blocks))
		}
		perr := runOneFlat(p, fp, fi, fnName)
		if perr == nil {
			if verr := fp.VerifyFn(fi); verr != nil {
				perr = &PassError{Pass: p.Name, Fn: fnName, Err: verr}
			}
		}
		if perr != nil {
			good.Restore()
			if opts.Recorder != nil {
				// Retract the pass's staged remarks and metric deltas; the
				// span survives, marked rolled back, mirroring the Incident.
				opts.Recorder.EndPass(f.NumInstrs(), len(f.Blocks), true, perr.Error())
			}
			if opts.Strict {
				return perr
			}
			if opts.Diags != nil {
				opts.Diags.Incidents = append(opts.Diags.Incidents,
					Incident{Pass: p.Name, Fn: fnName, Err: perr})
			}
			continue
		}
		good.Update()
		if p.OnSuccess != nil {
			p.OnSuccess()
		}
		if opts.Recorder != nil {
			opts.Recorder.EndPass(f.NumInstrs(), len(f.Blocks), false, "")
		}
		if opts.OnPass != nil {
			opts.OnPass(p.Name, fp, fi)
		}
	}
	return nil
}

// runOneFlat applies one pass, converting a panic into a structured *PassError.
func runOneFlat(p FlatPass, fp *rtl.FlatProgram, fi int, fnName string) (perr *PassError) {
	defer func() {
		if r := recover(); r != nil {
			perr = &PassError{Pass: p.Name, Fn: fnName, Recovered: r, Stack: debug.Stack()}
		}
	}()
	if err := p.Run(fp, fi); err != nil {
		return &PassError{Pass: p.Name, Fn: fnName, Err: err}
	}
	return nil
}

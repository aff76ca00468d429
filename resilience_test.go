package macc_test

import (
	"errors"
	"testing"

	"macc"
	"macc/internal/faultinject"
	"macc/internal/pipeline"
)

// resilienceArgs exercises the dot product over the deterministic memory
// image pipeline.Behavior seeds (a and b arrays land on the i*7 pattern).
var resilienceArgs = [][]int64{{0, 4096, 33}}

const resilienceMem = 1 << 16

func dotBehavior(t *testing.T, p *macc.Program) string {
	t.Helper()
	fp, err := pipeline.Behavior(p.RTL, p.Machine, resilienceMem, "dotproduct", resilienceArgs)
	if err != nil {
		t.Fatalf("behavior: %v", err)
	}
	return fp
}

// TestFaultInjectionAcrossPipeline drives the issue's acceptance criterion:
// with a fault injected into any pipeline pass, a default (non-strict)
// macc.Compile still returns a runnable Program whose simulator behaviour
// is bit-identical to the Optimize: false build, Program.Diagnostics names
// the failing pass, and macc.Bisect attributes the same pass; in Strict
// mode the same fault surfaces as a *pipeline.PassError.
func TestFaultInjectionAcrossPipeline(t *testing.T) {
	unopt, err := macc.Compile(dotSrc, macc.Config{Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	wantFP := dotBehavior(t, unopt)

	kinds := []faultinject.Kind{
		faultinject.Panic, faultinject.ClobberReg,
		faultinject.DropTerminator, faultinject.RetargetBranch,
	}
	for _, pass := range macc.Passes(macc.DefaultConfig()) {
		for _, kind := range kinds {
			t.Run(pass+"/"+kind.String(), func(t *testing.T) {
				// Non-strict: degraded but correct, incident attributed.
				inj := &faultinject.Injector{Pass: pass, Kind: kind, Seed: 1}
				cfg := macc.DefaultConfig()
				cfg.WrapPass = inj.Hook()
				prog, err := macc.Compile(dotSrc, cfg)
				if err != nil {
					t.Fatalf("non-strict compile died: %v", err)
				}
				if !inj.Fired() {
					t.Skipf("pass %s offered no victim for %s", pass, kind)
				}
				if got := dotBehavior(t, prog); got != wantFP {
					t.Errorf("degraded program diverges from the unoptimized build")
				}
				failed := prog.Diagnostics.FailedPasses()
				if len(failed) == 0 || failed[0] != pass {
					t.Errorf("Diagnostics names %v, want %q first", failed, pass)
				}

				// Strict: the same fault aborts compilation as a *PassError.
				scfg := macc.DefaultConfig()
				scfg.Strict = true
				scfg.WrapPass = (&faultinject.Injector{Pass: pass, Kind: kind, Seed: 1}).Hook()
				_, serr := macc.Compile(dotSrc, scfg)
				var pe *pipeline.PassError
				if !errors.As(serr, &pe) || pe.Pass != pass {
					t.Errorf("strict compile: want *PassError for %q, got %v", pass, serr)
				}

				// Bisection attributes the same pass.
				bcfg := macc.DefaultConfig()
				bcfg.WrapPass = (&faultinject.Injector{Pass: pass, Kind: kind, Seed: 1}).Hook()
				bad, err := macc.DifferentialPredicate(unopt.Flat, "dotproduct", bcfg, resilienceMem, resilienceArgs)
				if err != nil {
					t.Fatal(err)
				}
				res, err := macc.Bisect(unopt.Flat, "dotproduct", bcfg, bad)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Found() || res.Pass != pass {
					t.Errorf("bisect attributes %v, want %q", res, pass)
				}
			})
		}
	}
}

// TestSilentMiscompileIsBisectable: a flip-op fault survives the structural
// checkpoints (silent miscompile) but differential bisection still pins it.
func TestSilentMiscompileIsBisectable(t *testing.T) {
	unopt, err := macc.Compile(dotSrc, macc.Config{Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	cfg := macc.DefaultConfig()
	inj := &faultinject.Injector{Pass: "strength-reduce", Kind: faultinject.FlipOp, Seed: 2}
	cfg.WrapPass = inj.Hook()
	bad, err := macc.DifferentialPredicate(unopt.Flat, "dotproduct", cfg, resilienceMem, resilienceArgs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := macc.Bisect(unopt.Flat, "dotproduct", cfg, bad)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() || res.Pass != "strength-reduce" {
		t.Fatalf("bisect = %v, want strength-reduce", res)
	}
}

// TestCleanCompileHasEmptyDiagnostics pins the healthy-path contract: no
// incidents, and bisection over the real pipeline finds no culprit.
func TestCleanCompileHasEmptyDiagnostics(t *testing.T) {
	prog, err := macc.Compile(dotSrc, macc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if prog.Diagnostics.Degraded() {
		t.Fatalf("healthy compile reported incidents: %s", prog.Diagnostics)
	}
	unopt, err := macc.Compile(dotSrc, macc.Config{Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := macc.DifferentialPredicate(unopt.Flat, "dotproduct", macc.DefaultConfig(), resilienceMem, resilienceArgs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := macc.Bisect(unopt.Flat, "dotproduct", macc.DefaultConfig(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found() {
		t.Fatalf("healthy pipeline accused %v", res)
	}
}

// TestStrictDefaultOff ensures the graceful mode is the default: Config's
// zero value (plus Optimize) compiles degraded rather than failing.
func TestStrictDefaultOff(t *testing.T) {
	inj := &faultinject.Injector{Pass: "clean", Kind: faultinject.Panic}
	cfg := macc.Config{Optimize: true, WrapPass: inj.Hook()}
	prog, err := macc.Compile(dotSrc, cfg)
	if err != nil {
		t.Fatalf("default mode must not fail: %v", err)
	}
	if !prog.Diagnostics.Degraded() {
		t.Error("expected a recorded incident")
	}
}

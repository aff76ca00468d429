package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"macc"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/pipeline"
	"macc/internal/rtlgen"
	"macc/internal/telemetry"
)

// CorpusConfigs names the coalescing configurations every corpus program is
// compiled under, in column order.
var CorpusConfigs = []string{"loads", "loads+stores"}

// NamedConfig builds the named coalescing configuration for machine m:
// "loads" coalesces loads only, "loads+stores" both — the last two columns
// of the paper's tables.
func NamedConfig(name string, m *machine.Machine) macc.Config {
	cfg := macc.BaselineConfig(m)
	cfg.Coalesce = core.Options{Loads: true, Stores: name == "loads+stores"}
	return cfg
}

// CorpusFold receives one corpus compile's telemetry, attributed to the
// machine and configuration column it ran under. It is called from many
// workers concurrently and must be safe for that (report.Builder.Add is).
type CorpusFold func(machineName, config string, rec *telemetry.Recorder)

// CorpusOutcome summarizes a corpus run. Miscompiles must be empty: every
// entry is a program whose optimized behaviour fingerprint diverged from
// its unoptimized compile — the differential oracle the ROADMAP requires
// for the corpus engine.
type CorpusOutcome struct {
	Programs    int      `json:"programs"`
	Compiles    int      `json:"compiles"`
	Miscompiles []string `json:"miscompiles,omitempty"`
	Failures    []string `json:"failures,omitempty"`
}

// Ok reports whether the run completed with zero miscompiles and zero
// failed compiles.
func (o CorpusOutcome) Ok() bool { return len(o.Miscompiles) == 0 && len(o.Failures) == 0 }

// RunCorpus pushes every (program × machine) pair through the unoptimized
// reference compile and each coalescing configuration, verifying that
// optimization preserved the program's behaviour fingerprint
// (pipeline.BehaviorFlat over the program's concrete arguments) and handing
// each optimized compile's remarks to fold. Work is spread over the given
// number of workers (0 means GOMAXPROCS); the outcome is deterministic
// regardless of worker count.
func RunCorpus(progs []rtlgen.CorpusProgram, machines []*machine.Machine, workers int, fold CorpusFold) CorpusOutcome {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type job struct {
		prog rtlgen.CorpusProgram
		m    *machine.Machine
	}
	jobs := make(chan job)
	var mu sync.Mutex
	out := CorpusOutcome{Programs: len(progs)}
	fail := func(format string, args ...any) {
		mu.Lock()
		out.Failures = append(out.Failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				runCorpusJob(j.prog, j.m, fold, &mu, &out, fail)
			}
		}()
	}
	for _, p := range progs {
		for _, m := range machines {
			jobs <- job{p, m}
		}
	}
	close(jobs)
	wg.Wait()
	sort.Strings(out.Miscompiles)
	sort.Strings(out.Failures)
	return out
}

func runCorpusJob(p rtlgen.CorpusProgram, m *machine.Machine, fold CorpusFold,
	mu *sync.Mutex, out *CorpusOutcome, fail func(string, ...any)) {
	// The reference is the front end with every optimization off: the
	// fingerprint any optimizing configuration must reproduce.
	refProg, err := macc.Compile(p.Src, macc.Config{Machine: m})
	if err != nil {
		fail("%s/%s: reference compile: %v", p.Name, m.Name, err)
		return
	}
	refFP, err := pipeline.BehaviorFlat(refProg.Flat, m, p.MemBytes, p.Entry, [][]int64{p.Args})
	if err != nil {
		fail("%s/%s: reference run: %v", p.Name, m.Name, err)
		return
	}
	for _, cname := range CorpusConfigs {
		rec := telemetry.NewRecorder()
		cfg := NamedConfig(cname, m)
		cfg.Unit = p.Name
		cfg.Telemetry = rec
		prog, err := macc.Compile(p.Src, cfg)
		if err != nil {
			fail("%s/%s/%s: compile: %v", p.Name, m.Name, cname, err)
			continue
		}
		if prog.Diagnostics.Degraded() {
			fail("%s/%s/%s: compile degraded: %v", p.Name, m.Name, cname, prog.Diagnostics)
			continue
		}
		fp, err := pipeline.BehaviorFlat(prog.Flat, m, p.MemBytes, p.Entry, [][]int64{p.Args})
		if err != nil {
			fail("%s/%s/%s: optimized run: %v", p.Name, m.Name, cname, err)
			continue
		}
		mu.Lock()
		out.Compiles++
		if fp != refFP {
			out.Miscompiles = append(out.Miscompiles,
				fmt.Sprintf("%s/%s/%s: behaviour diverged from unoptimized compile", p.Name, m.Name, cname))
		}
		mu.Unlock()
		if fold != nil {
			fold(m.Name, cname, rec)
		}
	}
}

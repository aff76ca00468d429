// Command optreport is the optimization observatory's front end: it runs
// the eight paper kernels and a seeded rtlgen corpus of generated mini-C
// programs through every machine model and coalescing configuration,
// folds the resulting optimization remarks into one macc-optreport/v1
// artifact (BENCH_optreport.json), and renders the coalescing coverage
// table the paper's statistical claim is judged by.
//
//	optreport -out BENCH_optreport.json          regenerate the artifact
//	optreport -diff old.json new.json            show verdict flips
//	optreport -diff old.json new.json -gate      exit nonzero on regressions
//
// Every corpus compile is differentially checked: the optimized program's
// behaviour fingerprint must match its unoptimized compile, so the report
// doubles as a miscompile hunt (the count must be zero). The diff matches
// loops by their stable identity key (unit:fn/loop), classifies
// Passed→Missed flips as regressions and Missed→Passed flips as wins, and
// -gate turns any regression — including a previously-Passed loop that
// vanished — into a CI failure, the committed-baseline pattern hotpath and
// loadgen use for performance applied to optimizer decisions.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/rtlgen"
	"macc/internal/telemetry"
	"macc/internal/telemetry/report"
)

func main() {
	out := flag.String("out", "BENCH_optreport.json", "write the artifact to this path (\"-\" for stdout)")
	corpusN := flag.Int("corpus", 200, "number of generated corpus programs (0 disables the corpus)")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	machinesFlag := flag.String("machines", "alpha,m88100,m68030", "comma-separated machine models")
	workers := flag.Int("j", 0, "parallel compile workers (0 = GOMAXPROCS)")
	md := flag.Bool("md", false, "render tables as markdown instead of aligned text")
	diff := flag.Bool("diff", false, "diff two artifacts: optreport -diff old.json new.json")
	gate := flag.Bool("gate", false, "with -diff: exit nonzero on any coalescing regression")
	flag.Parse()

	if *diff {
		// Standard flag parsing stops at the first positional, so in the
		// documented form `optreport -diff old.json new.json -gate` the
		// trailing -gate arrives as an argument; honor it either way.
		var paths []string
		for _, a := range flag.Args() {
			if a == "-gate" || a == "--gate" {
				*gate = true
				continue
			}
			paths = append(paths, a)
		}
		if len(paths) != 2 {
			fatal(fmt.Errorf("-diff needs exactly two artifact paths, got %d", len(paths)))
		}
		runDiff(paths[0], paths[1], *gate)
		return
	}

	machines, err := parseMachines(*machinesFlag)
	if err != nil {
		fatal(err)
	}
	o := options{
		corpus:   *corpusN,
		seed:     *seed,
		machines: machines,
		workers:  *workers,
		workload: bench.SmallWorkload(),
	}
	rep, err := generate(o)
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fatal(err)
	}

	fmt.Println("Paper kernels:")
	rep.WriteGroupTable(os.Stdout, *md, kernelUnits()...)
	fmt.Println("\nCoverage:")
	rep.WriteTable(os.Stdout, *md)
}

// options parameterizes one report generation run.
type options struct {
	corpus   int
	seed     int64
	machines []*machine.Machine
	workers  int
	workload bench.Workload
	// sabotage disables the coalescer's runtime checks, flipping
	// runtime-check-dependent loops from Passed to Missed. It exists so the
	// gate can be demonstrated end to end (see main_test.go); there is no
	// flag for it.
	sabotage bool
}

// corpusDesc identifies the workload; diffs refuse mismatched descriptions.
func (o options) corpusDesc() string {
	names := make([]string, len(o.machines))
	for i, m := range o.machines {
		names[i] = m.Name
	}
	return fmt.Sprintf("%d paper kernels + %d rtlgen programs (seed %d) on %s",
		len(allKernels()), o.corpus, o.seed, strings.Join(names, ","))
}

func allKernels() []bench.Benchmark {
	return append(bench.Benchmarks(), bench.DotProduct())
}

func kernelUnits() []string {
	var units []string
	for _, b := range allKernels() {
		units = append(units, b.Entry)
	}
	return units
}

// generate runs kernels and corpus through every machine × configuration
// and folds the remark streams into one report.
func generate(o options) (*report.Report, error) {
	builder := report.NewBuilder()

	// Kernels: measured through the bench harness, so every compile is also
	// validated against its Go reference before its remarks count.
	type job struct {
		b     bench.Benchmark
		m     *machine.Machine
		cname string
	}
	var jobs []job
	for _, b := range allKernels() {
		for _, m := range o.machines {
			for _, cname := range bench.CorpusConfigs {
				jobs = append(jobs, job{b, m, cname})
			}
		}
	}
	workers := o.workers
	if workers <= 0 {
		workers = len(jobs)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []string
		ch   = make(chan job)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				cfg := bench.NamedConfig(j.cname, j.m)
				cfg.Unit = j.b.Entry
				cfg.Coalesce.NoRuntimeChecks = o.sabotage
				rec := telemetry.NewRecorder()
				if _, err := bench.MeasureTraced(j.b, cfg, o.workload, rec); err != nil {
					mu.Lock()
					errs = append(errs, err.Error())
					mu.Unlock()
					continue
				}
				builder.Add(j.m.Name, j.cname, rec.Remarks())
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	if len(errs) > 0 {
		sort.Strings(errs)
		return nil, fmt.Errorf("kernel measurement failed:\n  %s", strings.Join(errs, "\n  "))
	}

	// Corpus: differentially checked generated programs.
	if o.corpus > 0 {
		progs := rtlgen.Corpus(o.seed, o.corpus)
		outcome := bench.RunCorpus(progs, o.machines, o.workers,
			func(mname, cname string, rec *telemetry.Recorder) {
				builder.Add(mname, cname, rec.Remarks())
			})
		if !outcome.Ok() {
			all := append(outcome.Miscompiles, outcome.Failures...)
			return nil, fmt.Errorf("corpus run not clean (%d miscompiles, %d failures):\n  %s",
				len(outcome.Miscompiles), len(outcome.Failures), strings.Join(all, "\n  "))
		}
		fmt.Fprintf(os.Stderr, "optreport: corpus ok: %d programs, %d compiles, 0 miscompiles\n",
			outcome.Programs, outcome.Compiles)
	}

	return builder.Build(o.corpusDesc()), nil
}

func runDiff(oldPath, newPath string, gate bool) {
	oldRep, err := readReport(oldPath)
	if err != nil {
		fatal(err)
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fatal(err)
	}
	d, err := report.DiffReports(oldRep, newRep)
	if err != nil {
		fatal(err)
	}
	d.WriteText(os.Stdout)
	if gate {
		if err := d.Gate(); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "optreport: gate clean vs", oldPath)
	}
}

func readReport(path string) (*report.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := report.ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func parseMachines(s string) ([]*machine.Machine, error) {
	var ms []*machine.Machine
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, ok := machine.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown machine %q", name)
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("no machines selected")
	}
	return ms, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "optreport:", err)
	os.Exit(1)
}

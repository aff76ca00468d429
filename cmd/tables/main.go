// Command tables regenerates every table and figure of the paper's
// evaluation on the simulated machines:
//
//	-table 1   Table I: the benchmark suite
//	-table 2   Table II: DEC Alpha cycles and percent savings
//	-table 3   Table III: Motorola 88100 cycles and percent savings
//	-table 4   the §3 Motorola 68030 result (slower on every program)
//	-table 5   run-time check cost (the §4 "10 to 15 instructions" claim)
//	-figure 1  the dot-product RTL before and after coalescing
//	-all       everything
//
// The default workload matches the paper (500x500 frames); -quick shrinks
// it for a fast smoke run.
//
// Machine-readable output for CI:
//
//	-json BENCH_macc.json   write the Alpha table as a benchmark artifact
//	                        (per-kernel cycles, memory references, and
//	                        coalesce counts; "-" writes to stdout)
//	-dump-kernels DIR       write each benchmark's C source into DIR so
//	                        other tools (e.g. macc -remarks) can run them
//	-trace trace.json       write a merged Chrome trace of every cell
//	                        compile; with -j each worker gets its own
//	                        process row (load it in chrome://tracing)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"macc"
	"macc/internal/bench"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/telemetry"
)

func main() {
	table := flag.Int("table", 0, "table number to regenerate (1-5)")
	figure := flag.Int("figure", 0, "figure number to regenerate (1)")
	all := flag.Bool("all", false, "regenerate everything")
	quick := flag.Bool("quick", false, "use a small workload")
	jsonOut := flag.String("json", "", "write the Alpha table as a JSON benchmark artifact to this path (\"-\" for stdout)")
	dumpDir := flag.String("dump-kernels", "", "write each benchmark's C source into this directory")
	jobs := flag.Int("j", 0, "worker pool width for table measurement (0 = GOMAXPROCS; output is identical at any width)")
	traceOut := flag.String("trace", "", "write a merged per-worker Chrome trace of the table's compiles to this path")
	flag.Parse()

	wl := bench.DefaultWorkload()
	if *quick {
		wl = bench.SmallWorkload()
	}
	topts := bench.TableOptions{Jobs: *jobs}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		defer f.Close()
		topts.Trace = f
	}
	// A Chrome trace file holds one JSON document, so only the first measured
	// table gets the writer; under -all the rest run untraced.
	tableOpts := func() bench.TableOptions {
		o := topts
		topts.Trace = nil
		return o
	}

	any := false
	if *dumpDir != "" {
		if err := dumpKernels(*dumpDir); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		any = true
	}
	if *jsonOut != "" {
		if err := writeArtifact(*jsonOut, wl, tableOpts()); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		any = true
	}
	want := func(n int) bool { return *all || *table == n }
	if want(1) {
		table1()
		any = true
	}
	if want(2) {
		machineTable("Table II: DEC Alpha (simulated cycles)", machine.Alpha(), wl, tableOpts())
		any = true
	}
	if want(3) {
		machineTable("Table III: Motorola 88100 (simulated cycles)", machine.M88100(), wl, tableOpts())
		any = true
	}
	if want(4) {
		machineTable("Motorola 68030 (simulated cycles; the paper's §3 negative result)", machine.M68030(), wl, tableOpts())
		any = true
	}
	if want(5) {
		table5()
		any = true
	}
	if *all || *figure == 1 {
		figure1()
		any = true
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}

// writeArtifact measures the Alpha table and writes it as the BENCH_macc
// JSON artifact CI uploads. Failed rows are preserved in the artifact (with
// their error text) and reported on stderr, but do not fail the run: the
// artifact is a record of what happened, not a gate.
func writeArtifact(path string, wl bench.Workload, topts bench.TableOptions) error {
	m := machine.Alpha()
	rows, err := bench.RunTableOpts(m, wl, topts)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "tables: %s: %v (row degraded)\n", r.Name, r.Err)
		}
	}
	a := bench.NewArtifact(m, wl, rows)
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return a.WriteJSON(w)
}

// dumpKernels writes each benchmark's C source (plus the Figure 1 dot
// product) into dir, named after the entry point, so CI can run cmd/macc
// with -remarks=json over the exact sources the tables measure.
func dumpKernels(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kernels := append(bench.Benchmarks(), bench.DotProduct())
	for _, b := range kernels {
		path := filepath.Join(dir, b.Entry+".c")
		if err := os.WriteFile(path, []byte(b.Src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func table1() {
	fmt.Println("Table I: compute- and memory-intensive benchmarks")
	fmt.Printf("%-20s %-52s %8s %8s\n", "Program", "Description", "paperLoC", "ourLoC")
	desc := map[string]string{
		"Convolution":        "gradient directional edge convolution of a 500x500 image",
		"Image add":          "image addition of two 500x500 frames",
		"Image add (16-bit)": "16-bit variant of image addition",
		"Image xor":          "exclusive-or of two 500x500 frames",
		"Translate":          "translate a 500x500 image to a new position",
		"Eqntott":            "SPEC89 eqntott comparison kernel",
		"Mirror":             "mirror image of a 500x500 frame",
	}
	paperLoC := map[string]int{}
	for _, b := range bench.Benchmarks() {
		paperLoC[b.Name] = b.PaperLoC
	}
	for _, b := range bench.Benchmarks() {
		ours := len(strings.Split(strings.TrimSpace(b.Src), "\n"))
		fmt.Printf("%-20s %-52s %8d %8d\n", b.Name, desc[b.Name], paperLoC[b.Name], ours)
	}
	fmt.Println()
}

// machineTable prints one paper table. Rows whose kernel or configuration
// failed to compile (or validate) render as diagnostic lines — one bad loop
// no longer takes the whole table down.
func machineTable(title string, m *machine.Machine, wl bench.Workload, topts bench.TableOptions) {
	rows, err := bench.RunTableOpts(m, wl, topts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		return
	}
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "tables: %s: %v (row degraded)\n", r.Name, r.Err)
		}
	}
	fmt.Print(bench.FormatTable(title, rows))
	fmt.Println()
}

// table5 reports the run-time check cost. The columns come from the
// telemetry metrics registry each compile populates (the same counters
// cmd/macc -metrics reports), not from hand-rolled sums over loop reports.
func table5() {
	fmt.Println("Run-time check cost (paper §4: \"10 to 15 instructions ... in the loop preheader\")")
	fmt.Printf("%-20s %12s %12s %12s %12s\n", "Program", "checkInstrs", "aliasPairs", "alignChecks", "loops")
	for _, b := range bench.Benchmarks() {
		rec := telemetry.NewRecorder()
		cfg := macc.BaselineConfig(machine.Alpha())
		cfg.Coalesce = core.Options{Loads: true, Stores: true}
		cfg.Telemetry = rec
		_, err := macc.Compile(b.Src, cfg)
		if err != nil {
			fmt.Printf("%-20s FAILED: %v\n", b.Name, err)
			continue
		}
		reg := rec.Metrics()
		fmt.Printf("%-20s %12d %12d %12d %12d\n", b.Name,
			reg.CounterValue("coalesce.check_instrs"),
			reg.CounterValue("coalesce.alias_check_pairs"),
			reg.CounterValue("coalesce.alignment_checks"),
			reg.CounterValue("coalesce.loops_coalesced"))
	}
	fmt.Println()
}

func figure1() {
	fmt.Println("Figure 1: dot product (a) source, (b) rolled RTL, (c) unrolled + coalesced RTL")
	fmt.Println("---- (a) source ----")
	fmt.Println(strings.TrimSpace(bench.DotProductSrc))

	show := func(title string, cfg macc.Config) {
		p, err := macc.Compile(bench.DotProductSrc, cfg)
		if err != nil {
			fmt.Printf("---- %s ----\nFAILED: %v\n", title, err)
			return
		}
		f, _ := p.Fn("dotproduct")
		fmt.Printf("---- %s ----\n%s", title, f)
	}
	plain := macc.Config{Machine: machine.Alpha(), Optimize: true}
	show("(b) optimized rolled loop", plain)
	full := macc.DefaultConfig()
	full.Schedule = false // keep the listing readable, as the paper's is
	show("(c) unrolled with coalesced memory references", full)
	_ = rtl.W2
}

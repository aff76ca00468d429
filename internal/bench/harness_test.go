package bench_test

import (
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
	"macc/internal/rtl"
)

// TestTablesSmall runs every benchmark under every configuration on every
// machine with a small workload, verifying outputs against the Go
// references each time, and asserts the paper's claims on the result.
func TestTablesSmall(t *testing.T) {
	wl := bench.SmallWorkload()
	tables := make(map[string][]bench.Row)
	for _, m := range machine.All() {
		rows, err := bench.RunTable(m, wl)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for _, r := range rows {
			if r.Err != nil {
				t.Errorf("%s/%s: %v", m.Name, r.Name, r.Err)
			}
		}
		t.Logf("\n%s", bench.FormatTable(m.Name, rows))
		tables[m.Name] = rows
	}
	if t.Failed() {
		return
	}
	checkPaperClaims(t, tables)
	checkCheckKinds(t, tables["alpha"])
}

// checkCheckKinds pins, per kernel, the split of the Alpha's preheader
// checks with loads and stores coalesced (EXPERIMENTS.md §4): the alias
// check pairs and alignment checks summed over the compile's loop reports.
// The reports' check instructions must add up to the table's count.
func checkCheckKinds(t *testing.T, rows []bench.Row) {
	t.Helper()
	type kinds struct{ instrs, aliasPairs, alignChecks int }
	want := map[string]kinds{
		"Convolution": {56, 3, 7}, "Image add": {27, 2, 3}, "Image add (16-bit)": {27, 2, 3},
		"Image xor": {27, 2, 3}, "Translate": {17, 1, 2}, "Eqntott": {0, 0, 0}, "Mirror": {19, 1, 2},
	}
	table := make(map[string]int64, len(rows))
	for _, r := range rows {
		table[r.Name] = r.LoadsStores.CheckInstrs
	}
	cfg := bench.Configs(machine.Alpha())[3] // loads and stores coalesced
	for _, b := range bench.Benchmarks() {
		p, err := macc.Compile(b.Src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var got kinds
		for _, r := range p.Reports {
			got.instrs += r.CheckInstrs
			got.aliasPairs += r.AliasCheckPairs
			got.alignChecks += r.AlignmentChecks
		}
		if w, ok := want[b.Name]; !ok || got != w {
			t.Errorf("alpha/%s: checks (instrs, alias pairs, alignment) = %v, want %v", b.Name, got, w)
		}
		if int64(got.instrs) != table[b.Name] {
			t.Errorf("alpha/%s: loop reports hold %d check instructions, the table %d", b.Name, got.instrs, table[b.Name])
		}
	}
}

// checkPaperClaims asserts the shape checks EXPERIMENTS.md makes of the
// paper's Tables II and III and its 68030 result, and pins the Alpha's
// run-time check counts (the table printed by cmd/tables -table 5).
// Simulated cycles are deterministic, so these are exact properties of the
// quick workload, not statistical ones.
func checkPaperClaims(t *testing.T, tables map[string][]bench.Row) {
	const eqntott = "Eqntott" // its loop spans blocks, so nothing coalesces
	const wide = "Image add (16-bit)"
	coalescing := func(machine string) []bench.Row {
		var rows []bench.Row
		for _, r := range tables[machine] {
			if r.Name != eqntott {
				rows = append(rows, r)
			}
		}
		return rows
	}

	// Alpha: every image kernel saves at least 30% in both columns, and
	// coalescing stores as well beats coalescing loads only.
	var add16 bench.Row
	for _, r := range coalescing("alpha") {
		if r.SavingsLoads() < 30 || r.SavingsBoth() < 30 {
			t.Errorf("alpha/%s: savings %.2f%% / %.2f%%, want >= 30%% in both columns",
				r.Name, r.SavingsLoads(), r.SavingsBoth())
		}
		if r.SavingsBoth() <= r.SavingsLoads() {
			t.Errorf("alpha/%s: loads+stores %.2f%% does not beat loads %.2f%%",
				r.Name, r.SavingsBoth(), r.SavingsLoads())
		}
		if r.Name == wide {
			add16 = r
		}
	}
	// The 16-bit kernel coalesces four elements per quadword, the 8-bit
	// ones eight, so it saves less than every 8-bit kernel.
	if add16.Name == "" {
		t.Fatalf("alpha: no %q row", wide)
	}
	for _, r := range coalescing("alpha") {
		if r.Name != wide && (add16.SavingsLoads() >= r.SavingsLoads() || add16.SavingsBoth() >= r.SavingsBoth()) {
			t.Errorf("alpha: %s saves %.2f%% / %.2f%%, not less than %s's %.2f%% / %.2f%%",
				wide, add16.SavingsLoads(), add16.SavingsBoth(), r.Name, r.SavingsLoads(), r.SavingsBoth())
		}
	}

	// 88100: the inserts outweigh the store savings, so loads+stores is
	// worse than loads only on every coalescing row.
	if rows := coalescing("m88100"); len(rows) != 6 {
		t.Errorf("m88100: %d coalescing rows, want 6", len(rows))
	}
	for _, r := range coalescing("m88100") {
		if r.SavingsBoth() >= r.SavingsLoads() {
			t.Errorf("m88100/%s: loads+stores %.2f%% is not worse than loads %.2f%%",
				r.Name, r.SavingsBoth(), r.SavingsLoads())
		}
	}

	// 68030: coalescing slows every coalescing row down, in both columns.
	for _, r := range coalescing("m68030") {
		if r.SavingsLoads() >= 0 || r.SavingsBoth() >= 0 {
			t.Errorf("m68030/%s: savings %.2f%% / %.2f%%, want negative in both columns",
				r.Name, r.SavingsLoads(), r.SavingsBoth())
		}
	}

	// Eqntott stays flat on every machine.
	for m, rows := range tables {
		for _, r := range rows {
			if r.Name == eqntott && (r.SavingsLoads() != 0 || r.SavingsBoth() != 0 || r.MemRefSavings() != 0) {
				t.Errorf("%s/%s: savings %.2f%% / %.2f%%, refs %.2f%%, want 0.00 everywhere",
					m, r.Name, r.SavingsLoads(), r.SavingsBoth(), r.MemRefSavings())
			}
		}
	}

	// The Alpha's preheader check counts with loads and stores coalesced.
	wantChecks := map[string]int64{
		"Convolution": 56, "Image add": 27, wide: 27, "Image xor": 27,
		"Translate": 17, eqntott: 0, "Mirror": 19,
	}
	if len(tables["alpha"]) != len(wantChecks) {
		t.Errorf("alpha: %d rows, want %d", len(tables["alpha"]), len(wantChecks))
	}
	for _, r := range tables["alpha"] {
		if want, ok := wantChecks[r.Name]; !ok || r.LoadsStores.CheckInstrs != want {
			t.Errorf("alpha/%s: %d check instructions, want %d", r.Name, r.LoadsStores.CheckInstrs, want)
		}
	}
}

// TestFigure1RefsPerElement asserts Figure 1's reference arithmetic on the
// Alpha: the rolled dot product makes 2 memory references per element,
// the unrolled and coalesced one 1/2.
func TestFigure1RefsPerElement(t *testing.T) {
	const n = 4096
	for _, c := range []struct {
		name string
		cfg  macc.Config
		want float64
	}{
		{"rolled", macc.Config{Machine: machine.Alpha(), Optimize: true}, 2.0},
		{"coalesced", macc.DefaultConfig(), 0.5},
	} {
		p, err := macc.Compile(bench.DotProductSrc, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := p.NewSim(1 << 20)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i % 100)
		}
		s.WriteInts(4096, rtl.W2, vals)
		s.WriteInts(4096+2*n+64, rtl.W2, vals)
		res, err := s.Run("dotproduct", 4096, 4096+2*n+64, n)
		s.Release()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := float64(res.MemRefs()) / n; got != c.want {
			t.Errorf("%s: %.4f memory references per element, want %.1f", c.name, got, c.want)
		}
	}
}

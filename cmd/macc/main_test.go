package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/ccache"
	"macc/internal/farm"
)

// TestParseCall pins how -run reads its fn(arg,...) call: decimal, hex and
// negative arguments parse, and a malformed call is refused as a bad -run
// before anything is compiled.
func TestParseCall(t *testing.T) {
	path := t.TempDir() + "/addone.c"
	if err := os.WriteFile(path, []byte("int addone(int x) { return x + 1; }"), 0o666); err != nil {
		t.Fatal(err)
	}
	name, args, err := farm.ParseCall("dotproduct(4096, 8192, 100)")
	if err != nil {
		t.Fatal(err)
	}
	if name != "dotproduct" || len(args) != 3 || args[0] != 4096 || args[2] != 100 {
		t.Errorf("parsed %q %v", name, args)
	}
	if _, args, err := farm.ParseCall("f()"); err != nil || len(args) != 0 {
		t.Errorf("empty call: %v %v", args, err)
	}
	if _, args, err := farm.ParseCall("f(0x10, -3)"); err != nil || args[0] != 16 || args[1] != -3 {
		t.Errorf("hex/negative args: %v %v", args, err)
	}
	for _, bad := range []string{"f", "f(1", "f(x)", "(1)"} {
		if _, _, err := farm.ParseCall(bad); err == nil {
			t.Errorf("ParseCall(%q) should fail", bad)
		}
		err := runBisect(io.Discard, path, macc.Config{}, bad, 4096)
		if err == nil || !strings.Contains(err.Error(), "bad -run") {
			t.Errorf("-bisect -run %q: err %v, want a bad -run error", bad, err)
		}
	}
}

// TestDumpMatchesGolden pins -dump: compiling the dot product with the
// driver's default flags must print every stage banner and the per-stage RTL
// exactly as testdata/dump_dotproduct.golden records them.
func TestDumpMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/dump_dotproduct.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	cfg := macc.DefaultConfig()
	cfg.DumpStage = dumpStages(&got)
	if _, err := macc.Compile(bench.DotProductSrc, cfg); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("-dump output differs from the golden file:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// TestSharedCacheDedupAcrossFiles pins the -j satellite: duplicate inputs
// routed through the shared cache compile once and print identically.
func TestSharedCacheDedupAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/k.c"
	src := `
int sum(short *a, int n) {
	int i, s;
	s = 0;
	for (i = 0; i < n; i++)
		s += a[i];
	return s;
}
`
	if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg := macc.DefaultConfig()
	cache := ccache.New(ccache.Options{})
	cfg.Cache = cache

	first := compileOne(path, cfg, show{rtl: true})
	second := compileOne(path, cfg, show{rtl: true})
	if first.failed || second.failed {
		t.Fatalf("compile failed:\n%s\n%s", first.errs, second.errs)
	}
	if first.out != second.out {
		t.Fatalf("cached compile printed differently:\n%s\nvs\n%s", first.out, second.out)
	}
	reg := cache.Metrics()
	if reg.CounterValue("ccache.stores") != 1 {
		t.Fatalf("stores = %d, want 1 (duplicate input recompiled)", reg.CounterValue("ccache.stores"))
	}
	if reg.CounterValue("ccache.mem_hits") != 1 {
		t.Fatalf("mem_hits = %d, want 1", reg.CounterValue("ccache.mem_hits"))
	}
}

// TestRunMemDefault pins -mem's reading: zero or a negative size means the
// 1 MiB that maccd gives a /run request, so -mem 0 and -mem -1 run the dot
// product exactly as -mem 1048576 does instead of trapping or panicking.
func TestRunMemDefault(t *testing.T) {
	prog, err := macc.Compile(bench.DotProductSrc, macc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(mem int) string {
		var out bytes.Buffer
		req := farm.RunRequest{Call: "dotproduct(4096,8192,64)", Mem: mem}
		if err := runLocal(&out, prog, req, 0, nil); err != nil {
			t.Fatalf("-mem %d: %v", mem, err)
		}
		return out.String()
	}
	want := run(1 << 20)
	if !strings.HasPrefix(want, "ret=") {
		t.Fatalf("-mem 1048576 printed %q", want)
	}
	for _, mem := range []int{0, -1} {
		if got := run(mem); got != want {
			t.Errorf("-mem %d printed %q, want %q", mem, got, want)
		}
	}
}

// TestBisectMemDefault pins -bisect's reading of -mem: the simulator's own
// rule, as for -run, so -mem 0 and -mem -1 bisect the dot product in 1 MiB
// and print the culprit line -mem 1048576 prints, instead of failing the
// reference run or panicking.
func TestBisectMemDefault(t *testing.T) {
	path := t.TempDir() + "/dotproduct.c"
	if err := os.WriteFile(path, []byte(bench.DotProductSrc), 0o666); err != nil {
		t.Fatal(err)
	}
	bisect := func(mem int) string {
		inj, err := parseInject("schedule:flip-op:3")
		if err != nil {
			t.Fatal(err)
		}
		cfg := macc.DefaultConfig()
		cfg.WrapPass = inj.Hook()
		var out bytes.Buffer
		if err := runBisect(&out, path, cfg, "dotproduct(0,4096,100)", mem); err != nil {
			t.Fatalf("-mem %d: %v", mem, err)
		}
		return out.String()
	}
	want := bisect(1 << 20)
	if !strings.HasPrefix(want, `bisect: first culprit is pass 5 "schedule"`) {
		t.Fatalf("-mem 1048576 printed %q", want)
	}
	for _, mem := range []int{0, -1} {
		if got := bisect(mem); got != want {
			t.Errorf("-mem %d printed %q, want %q", mem, got, want)
		}
	}
}

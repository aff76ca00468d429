package main

import (
	"strings"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/machine"
)

// artifact builds a minimal artifact whose cache rows carry the given
// cold-compile allocation counts, passing every other gate.
func artifact(goVersion string, allocs map[string]float64) Artifact {
	a := Artifact{
		Schema:             Schema,
		Provenance:         bench.Provenance{GoVersion: goVersion, GOOS: "linux", GOARCH: "amd64", CPUs: 2},
		CPUs:               2,
		CacheSpeedup:       cacheSpeedupFloor * 2,
		CodecDecodeSpeedup: codecDecodeSpeedupFloor * 2,
	}
	for _, k := range []string{"convolution", "dotproduct"} {
		a.Cache = append(a.Cache, CacheEntry{Kernel: k, ColdAllocsPerOp: allocs[k]})
	}
	return a
}

func TestCheckGatesColdAllocsPerKernel(t *testing.T) {
	base := artifact("go1.24.0", map[string]float64{"convolution": 100, "dotproduct": 50})

	same := artifact("go1.24.0", map[string]float64{"convolution": 90, "dotproduct": 50})
	if err := check(same, base); err != nil {
		t.Errorf("fewer or equal allocations must pass: %v", err)
	}

	worse := artifact("go1.24.0", map[string]float64{"convolution": 90, "dotproduct": 51})
	err := check(worse, base)
	if err == nil || !strings.Contains(err.Error(), "dotproduct") || strings.Contains(err.Error(), "convolution") {
		t.Errorf("one kernel allocating more must fail naming only that kernel, got %v", err)
	}

	otherGo := artifact("go1.22.0", map[string]float64{"convolution": 200, "dotproduct": 200})
	if err := check(otherGo, base); err != nil {
		t.Errorf("a different Go version must skip the allocation gate: %v", err)
	}
}

func TestCheckGatesPredecodeAllocsPerKernel(t *testing.T) {
	withPredecode := func(allocs map[string]float64) Artifact {
		a := artifact("go1.24.0", nil)
		for k, n := range allocs {
			a.Predecode = append(a.Predecode, PredecodeEntry{Kernel: k, AllocsPerOp: n})
		}
		return a
	}
	base := withPredecode(map[string]float64{"convolution": 20, "dotproduct": 20})

	if err := check(withPredecode(map[string]float64{"convolution": 19, "dotproduct": 20}), base); err != nil {
		t.Errorf("fewer or equal predecode allocations must pass: %v", err)
	}
	err := check(withPredecode(map[string]float64{"convolution": 21, "dotproduct": 20}), base)
	if err == nil || !strings.Contains(err.Error(), "convolution predecode") || strings.Contains(err.Error(), "dotproduct") {
		t.Errorf("one kernel's predecode allocating more must fail naming only that kernel, got %v", err)
	}

	// An artifact from before the predecode section has no rows to hold
	// the current ones to.
	if err := check(withPredecode(map[string]float64{"convolution": 99}), artifact("go1.24.0", nil)); err != nil {
		t.Errorf("a baseline without predecode rows must not gate them: %v", err)
	}
}

// timed builds a same-host artifact whose memory-tier and disk-tier rows
// carry the given cold and warm ns/op, with the speedups derived from them
// as measure derives them.
func timed(coldNs, memWarmNs, diskWarmNs float64) Artifact {
	a := artifact("go1.24.0", nil)
	var cold, mem, disk float64
	for i := range a.Cache {
		a.Cache[i].ColdNsPerOp = coldNs
		a.Cache[i].WarmNsPerOp = memWarmNs
		d := a.Cache[i]
		d.WarmNsPerOp = diskWarmNs
		a.WarmDisk = append(a.WarmDisk, d)
		cold += coldNs
		mem += memWarmNs
		disk += diskWarmNs
	}
	a.CacheSpeedup = cold / mem
	a.WarmDiskSpeedup = cold / disk
	return a
}

func TestCheckGatesWarmHitCostNotSpeedup(t *testing.T) {
	base := timed(1000, 20, 100)

	// A 40% faster cold compile shrinks both cold/warm speedups by 40% but
	// leaves the warm hits alone: not a regression.
	colder := timed(600, 20, 100)
	if colder.CacheSpeedup >= base.CacheSpeedup*0.75 {
		t.Fatalf("test setup: speedup %.1f should fall >25%% below %.1f", colder.CacheSpeedup, base.CacheSpeedup)
	}
	if err := check(colder, base); err != nil {
		t.Errorf("a cold-only speedup must pass: %v", err)
	}

	for _, tc := range []struct {
		name, want string
		cur        Artifact
	}{
		{"memory tier 30% slower", "memory-tier", timed(1000, 26, 100)},
		{"disk tier 30% slower", "disk-tier", timed(1000, 20, 130)},
	} {
		err := check(tc.cur, base)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s must fail naming the %s, got %v", tc.name, tc.want, err)
		}
	}

	within := timed(1000, 24, 120)
	if err := check(within, base); err != nil {
		t.Errorf("a 20%% warm slowdown is within the gate: %v", err)
	}

	otherHost := timed(1000, 40, 200)
	otherHost.Provenance.CPUs = 8
	if err := check(otherHost, base); err != nil {
		t.Errorf("a different host must skip the warm-cost gates: %v", err)
	}
}

// TestColdAllocsAreDeterministic measures every paper kernel's cold-compile
// and predecode allocation counts twice: the gate compares counts exactly,
// so the two measurements must agree.
func TestColdAllocsAreDeterministic(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	for _, bm := range append(bench.Benchmarks(), bench.DotProduct()) {
		cfg := macc.DefaultConfig()
		cfg.Machine = machine.Alpha()
		first, err := coldAllocs(bm.Src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		second, err := coldAllocs(bm.Src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if first != second {
			t.Errorf("%s: cold compile allocs measured %.0f then %.0f", bm.Entry, first, second)
		}
		p, err := macc.Compile(bm.Src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if first, second := predecodeAllocs(p), predecodeAllocs(p); first != second {
			t.Errorf("%s: predecode allocs measured %.0f then %.0f", bm.Entry, first, second)
		}
	}
}

package main

import (
	"strings"
	"testing"

	"macc/internal/bench"
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

package main

import (
	"testing"

	"macc/internal/farm"
)

// TestQuantile pins the nearest-rank definition on known samples: the
// q-quantile is the smallest sample with at least a fraction q of the
// samples at or below it.
func TestQuantile(t *testing.T) {
	hundred := seq(100)
	cases := []struct {
		name    string
		samples []int64
		q       float64
		want    int64
	}{
		{"empty", nil, 0.5, 0},
		{"single p50", []int64{7}, 0.5, 7},
		{"single max", []int64{7}, 1, 7},
		{"1..100 p50", hundred, 0.50, 50},
		{"1..100 p90", hundred, 0.90, 90},
		{"1..100 p99", hundred, 0.99, 99},
		{"1..100 max", hundred, 1, 100},
		{"1..100 p0", hundred, 0, 1},
		// Four samples: p50 is the 2nd, p90 and p99 round up to the 4th.
		{"four p50", []int64{10, 20, 30, 1000}, 0.50, 20},
		{"four p90", []int64{10, 20, 30, 1000}, 0.90, 1000},
		{"four p99", []int64{10, 20, 30, 1000}, 0.99, 1000},
		// 600 samples (the chaos smoke's request count): p99 is the 594th.
		{"600 p99", seq(600), 0.99, 594},
	}
	for _, tc := range cases {
		if got := quantile(tc.samples, tc.q); got != tc.want {
			t.Errorf("%s: quantile(q=%v) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
}

// seq returns 1..n.
func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

// TestReferenceWritesDataAtItsWidth pins the reference run to the request's
// data path: each write lands at its own width, as maccd writes it, so a
// kernel over shorts sees its values and not their 32-bit halves.
func TestReferenceWritesDataAtItsWidth(t *testing.T) {
	k := kernel{
		name: "sum16",
		src:  "int sum16(short *a, int n) { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) { s = s + a[i]; } return s; }",
		call: "sum16(0x1000, 5)",
		data: []farm.DataWrite{{Addr: 4096, Width: 2, Ints: []int64{1, 2, 3, 4, 5}}},
		mem:  1 << 16,
	}
	ref, err := (&refStore{}).get(k.src, k)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ret != 15 {
		t.Errorf("reference sum16 returned %d, want 15", ref.ret)
	}
}

package bench_test

import (
	"runtime"
	"testing"

	"macc/internal/bench"
	"macc/internal/machine"
)

func benchmarkRunTable(b *testing.B, jobs int) {
	m := machine.Alpha()
	wl := bench.SmallWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTableOpts(m, wl, bench.TableOptions{Jobs: jobs})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkRunTableSerial measures the full paper table on one worker.
func BenchmarkRunTableSerial(b *testing.B) { benchmarkRunTable(b, 1) }

// BenchmarkRunTableParallel measures the same table on a GOMAXPROCS-wide
// pool; on a multi-core host this is the tentpole's >= 2x scaling claim.
func BenchmarkRunTableParallel(b *testing.B) { benchmarkRunTable(b, runtime.GOMAXPROCS(0)) }

// BenchmarkSimDotProduct measures the predecoded interpreter's raw rate,
// reported as simulated MIPS, on a single Sim reused across runs — the shape
// Measure's inner loop has after arena reuse.
func BenchmarkSimDotProduct(b *testing.B) {
	step, instrs, release, err := bench.SimStepper(machine.Alpha(), bench.SmallWorkload())
	if err != nil {
		b.Fatal(err)
	}
	defer release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(instrs)*float64(b.N)/secs/1e6, "MIPS")
	}
}

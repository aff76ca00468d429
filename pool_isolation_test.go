package macc_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"macc"
	"macc/internal/bench"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/rtlgen"
)

// isolationJob is one compile input under one machine.
type isolationJob struct {
	name    string
	compile func() (*macc.Program, error)
}

// isolationResult is everything a compile must reproduce exactly.
type isolationResult struct {
	rtl      string
	reports  []core.LoopReport
	unrolled map[string]int
}

// isolationJobs interleaves large inputs (the convolution and dot product
// kernels) with small ones (rtlgen seeds 1-40) on every machine under the
// loads+stores configuration, so pooled pass storage grown for one input is
// handed next to an input of a different size.
func isolationJobs() []isolationJob {
	var conv bench.Benchmark
	for _, bm := range bench.Benchmarks() {
		if bm.Entry == "convolution" {
			conv = bm
		}
	}
	var jobs []isolationJob
	for _, m := range machine.All() {
		conf := bench.NamedConfig("loads+stores", m)
		kernel := func(bm bench.Benchmark) isolationJob {
			return isolationJob{bm.Name + "/" + m.Name, func() (*macc.Program, error) {
				return macc.Compile(bm.Src, conf)
			}}
		}
		for seed := int64(1); seed <= 40; seed++ {
			jobs = append(jobs, isolationJob{fmt.Sprintf("seed-%d/%s", seed, m.Name), func() (*macc.Program, error) {
				fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
				if err != nil {
					return nil, err
				}
				return macc.CompileRTL(&rtl.Program{Fns: []*rtl.Fn{fn}}, conf)
			}})
			switch seed % 5 {
			case 1:
				jobs = append(jobs, kernel(conv))
			case 3:
				jobs = append(jobs, kernel(bench.DotProduct()))
			}
		}
	}
	return jobs
}

func runIsolationJob(j isolationJob) (isolationResult, error) {
	p, err := j.compile()
	if err != nil {
		return isolationResult{}, fmt.Errorf("%s: %v", j.name, err)
	}
	return isolationResult{p.RTL.String(), p.Reports, p.Unrolled}, nil
}

// TestPooledScratchIsolation checks that the scheduler's and the cleaner's
// pooled storage carries nothing from one compile into the next: every
// compile, serial or concurrent, of every input must reproduce that input's
// first compile exactly — its printed RTL, its loop reports (with the
// scheduler's cycle estimates) and its unroll factors.
func TestPooledScratchIsolation(t *testing.T) {
	jobs := isolationJobs()
	want := make([]isolationResult, len(jobs))
	for i, j := range jobs {
		r, err := runIsolationJob(j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	check := func(how string, i int, got isolationResult) {
		w := want[i]
		if got.rtl != w.rtl {
			t.Errorf("%s: %s: printed RTL differs from the first compile", how, jobs[i].name)
		}
		if !reflect.DeepEqual(got.reports, w.reports) {
			t.Errorf("%s: %s: reports %+v, first compile %+v", how, jobs[i].name, got.reports, w.reports)
		}
		if !reflect.DeepEqual(got.unrolled, w.unrolled) {
			t.Errorf("%s: %s: unrolled %v, first compile %v", how, jobs[i].name, got.unrolled, w.unrolled)
		}
	}
	for i, j := range jobs {
		got, err := runIsolationJob(j)
		if err != nil {
			t.Fatal(err)
		}
		check("serial", i, got)
	}

	// Four workers, each starting a quarter of the way further round the
	// job list, so different inputs are in flight at once.
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				i := (k + w*len(jobs)/workers) % len(jobs)
				got, err := runIsolationJob(jobs[i])
				if err != nil {
					t.Error(err)
					continue
				}
				check(fmt.Sprintf("worker %d", w), i, got)
			}
		}()
	}
	wg.Wait()
}

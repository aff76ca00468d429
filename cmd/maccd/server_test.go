package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"macc/internal/bench"
)

func newTestServer(t *testing.T, opts ServerOptions) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post[Resp any](t *testing.T, url string, body any) (int, Resp) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Resp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

const addOneSrc = "int addone(int x) { return x + 1; }"

func TestCompileColdThenWarm(t *testing.T) {
	ts := newTestServer(t, ServerOptions{CacheDir: t.TempDir()})

	code, first := post[CompileResponse](t, ts.URL+"/compile", CompileRequest{Source: addOneSrc})
	if code != http.StatusOK {
		t.Fatalf("cold compile: status %d", code)
	}
	if first.Cached {
		t.Error("cold compile reported cached")
	}
	if !strings.Contains(first.RTL, "func addone") {
		t.Errorf("RTL missing function:\n%s", first.RTL)
	}

	code, second := post[CompileResponse](t, ts.URL+"/compile", CompileRequest{Source: addOneSrc})
	if code != http.StatusOK {
		t.Fatalf("warm compile: status %d", code)
	}
	if !second.Cached {
		t.Error("warm compile not served from cache")
	}
	if first.RTL != second.RTL {
		t.Errorf("warm RTL differs from cold:\n%s\nvs\n%s", first.RTL, second.RTL)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Counters["ccache.mem_hits"] != 1 {
		t.Errorf("ccache.mem_hits = %d, want 1 (counters: %v)", metrics.Counters["ccache.mem_hits"], metrics.Counters)
	}
	if metrics.Counters["maccd.requests"] != 2 {
		t.Errorf("maccd.requests = %d, want 2", metrics.Counters["maccd.requests"])
	}
}

func TestRunEndpoint(t *testing.T) {
	ts := newTestServer(t, ServerOptions{})

	src := `
int sum(short *a, int n) {
	int i, s;
	s = 0;
	for (i = 0; i < n; i++)
		s += a[i];
	return s;
}
`
	req := RunRequest{
		CompileRequest: CompileRequest{Source: src},
		Call:           "sum(4096, 5)",
		Data: []DataWrite{
			{Addr: 4096, Width: 2, Ints: []int64{1, 2, 3, 4, 5}},
		},
	}
	code, out := post[RunResponse](t, ts.URL+"/run", req)
	if code != http.StatusOK {
		t.Fatalf("run: status %d", code)
	}
	if out.Ret != 15 {
		t.Errorf("sum returned %d, want 15", out.Ret)
	}
	if out.Cycles <= 0 || out.MemRefs <= 0 {
		t.Errorf("suspicious stats: cycles=%d mem_refs=%d", out.Cycles, out.MemRefs)
	}

	// Second run of the same source must hit the cache and agree.
	code, again := post[RunResponse](t, ts.URL+"/run", req)
	if code != http.StatusOK || !again.Cached {
		t.Fatalf("warm run: status %d cached %v", code, again.Cached)
	}
	if again.Ret != out.Ret || again.Cycles != out.Cycles || again.MemRefs != out.MemRefs {
		t.Errorf("cached run diverged: %+v vs %+v", again, out)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, ServerOptions{})

	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"empty source", "/compile", CompileRequest{}, http.StatusBadRequest},
		{"bad machine", "/compile", CompileRequest{Source: addOneSrc, Machine: "vax"}, http.StatusBadRequest},
		{"bad coalesce", "/compile", CompileRequest{Source: addOneSrc, Coalesce: "sideways"}, http.StatusBadRequest},
		{"bad unroll", "/compile", CompileRequest{Source: addOneSrc, Unroll: "1"}, http.StatusBadRequest},
		{"syntax error", "/compile", CompileRequest{Source: "int f( {"}, http.StatusBadRequest},
		{"missing call", "/run", RunRequest{CompileRequest: CompileRequest{Source: addOneSrc}}, http.StatusBadRequest},
		{"bad data width", "/run", RunRequest{
			CompileRequest: CompileRequest{Source: addOneSrc},
			Call:           "addone(1)",
			Data:           []DataWrite{{Addr: 0, Width: 3, Ints: []int64{1}}},
		}, http.StatusBadRequest},
		{"data out of range", "/run", RunRequest{
			CompileRequest: CompileRequest{Source: addOneSrc},
			Call:           "addone(1)",
			Mem:            4096,
			Data:           []DataWrite{{Addr: 4090, Width: 8, Ints: []int64{1, 2}}},
		}, http.StatusBadRequest},
		{"unknown field", "/compile", map[string]any{"source": addOneSrc, "bogus": 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post[map[string]any](t, ts.URL+tc.path, tc.body)
			if code != tc.want {
				t.Errorf("status %d, want %d (body %v)", code, tc.want, body)
			}
		})
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile: status %d, want 405", resp.StatusCode)
	}
}

// TestSaturationShedsLoad fills the worker pool from the test and checks a
// queued request is rejected with 503 when its deadline expires in queue.
func TestSaturationShedsLoad(t *testing.T) {
	s := NewServer(ServerOptions{Workers: 1, Timeout: 50 * time.Millisecond})
	s.sem <- struct{}{} // occupy the only worker slot
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := post[map[string]any](t, ts.URL+"/compile", CompileRequest{Source: addOneSrc})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %v)", code, body)
	}
	if s.reg.CounterValue("maccd.queue_timeouts") != 1 {
		t.Errorf("queue_timeouts = %d, want 1", s.reg.CounterValue("maccd.queue_timeouts"))
	}
	<-s.sem

	// With the slot free again the same request succeeds.
	code, _ = post[CompileResponse](t, ts.URL+"/compile", CompileRequest{Source: addOneSrc})
	if code != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", code)
	}
}

// TestConcurrentStress hammers /compile and /run with a handful of distinct
// sources from many goroutines. Run under -race this exercises the cache,
// singleflight, worker pool, and metrics registry concurrently; every
// response for a given source must print identical RTL.
func TestConcurrentStress(t *testing.T) {
	ts := newTestServer(t, ServerOptions{CacheDir: t.TempDir(), Workers: 4})

	sources := []string{
		bench.ConvolutionSrc,
		bench.ImageAddSrc,
		addOneSrc,
	}
	const goroutines = 8
	const perG = 6

	var mu sync.Mutex
	rtlBySource := make(map[string]string)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				src := sources[(g+i)%len(sources)]
				b, _ := json.Marshal(CompileRequest{Source: src})
				resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(b))
				if err != nil {
					errc <- err
					return
				}
				var out CompileResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				mu.Lock()
				if prev, ok := rtlBySource[src]; ok && prev != out.RTL {
					errc <- fmt.Errorf("divergent RTL for same source")
				}
				rtlBySource[src] = out.RTL
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if len(rtlBySource) != len(sources) {
		t.Errorf("saw %d distinct sources, want %d", len(rtlBySource), len(sources))
	}
}

// TestParseCallServer pins how /run reads its call: hex and negative
// arguments reach the function, and a malformed call is a 400 naming the
// bad call.
func TestParseCallServer(t *testing.T) {
	ts := newTestServer(t, ServerOptions{})
	req := RunRequest{CompileRequest: CompileRequest{Source: addOneSrc}, Call: "addone(0x10)"}
	code, out := post[RunResponse](t, ts.URL+"/run", req)
	if code != http.StatusOK || out.Ret != 17 {
		t.Errorf("addone(0x10): status %d ret %d, want 200 and 17", code, out.Ret)
	}
	req.Call = "addone(-2)"
	if code, out := post[RunResponse](t, ts.URL+"/run", req); code != http.StatusOK || out.Ret != -1 {
		t.Errorf("addone(-2): status %d ret %d, want 200 and -1", code, out.Ret)
	}
	for _, bad := range []string{"", "f", "f(1", "(1)", "f(x)"} {
		req.Call = bad
		code, body := post[map[string]any](t, ts.URL+"/run", req)
		msg, _ := body["error"].(string)
		if code != http.StatusBadRequest || !strings.Contains(msg, "bad call") {
			t.Errorf("call %q: status %d body %v, want 400 bad call", bad, code, body)
		}
	}
}

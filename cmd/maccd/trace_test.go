package main

// End-to-end distributed-tracing tests: a client-rooted request through a
// 3-replica farm must produce ONE trace whose assembled span tree shows
// every hop — the client's call and attempt legs, the serving replica's
// ingress, the cache-tier decision, the peer-lookup legs, and (for a cold
// compile) the per-pass pipeline spans — retrievable from any replica as
// either the raw span set or valid Chrome trace_event JSON.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"macc/internal/farm"
	"macc/internal/telemetry/dtrace"
)

// traceFarm builds three mutually-peered replicas and returns their URLs.
func traceFarm(t *testing.T) ([]*Server, []string) {
	t.Helper()
	const replicas = 3
	swaps := make([]*swapHandler, replicas)
	urls := make([]string, replicas)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	servers := make([]*Server, replicas)
	for i := range servers {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		servers[i] = NewServer(ServerOptions{
			CacheDir: t.TempDir(),
			Peers:    peers,
			Service:  fmt.Sprintf("maccd:%d", i),
		})
		t.Cleanup(servers[i].Close)
		swaps[i].set(servers[i].Handler())
	}
	return servers, urls
}

// fetchSpans pulls the assembled trace from a replica as a raw span set.
func fetchSpans(t *testing.T, base, traceID string) []dtrace.Span {
	t.Helper()
	resp, err := http.Get(base + farm.DebugTracePrefix + traceID + "?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d", resp.StatusCode)
	}
	var dump farm.TraceDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	return dump.Spans
}

func kindSet(spans []dtrace.Span) map[string]int {
	m := make(map[string]int)
	for _, s := range spans {
		m[s.Kind]++
	}
	return m
}

// TestFarmDistributedTrace: request 1 (cold, via a loadgen-style farm
// client pinned to replica 0) must assemble into one trace holding the
// client root, the client attempt, replica 0's ingress, the cache miss
// decision, the peer-lookup call, and the pipeline pass spans. Request 2
// (same source, pinned to replica 1) must show the peer cache hit tier.
func TestFarmDistributedTrace(t *testing.T) {
	servers, urls := traceFarm(t)

	ct := dtrace.New("client", 0)
	farmPost := func(target int) string {
		cli := farm.NewClient(farm.ClientOptions{Peers: []string{urls[target]}, Tracer: ct})
		root := ct.StartRoot("compile "+addOneSrc[:10], dtrace.KindRequest)
		ctx := dtrace.ContextWith(context.Background(), root.Context())
		var out CompileResponse
		if _, err := cli.PostJSON(ctx, "/compile", CompileRequest{Source: addOneSrc}, &out); err != nil {
			t.Fatalf("farm compile: %v", err)
		}
		root.End()
		if !cli.ReportTrace(context.Background(), root.TraceID()) {
			t.Fatal("no replica accepted the client span push")
		}
		return root.TraceID()
	}

	coldID := farmPost(0)
	spans := fetchSpans(t, urls[0], coldID)
	for _, sp := range spans {
		if sp.Trace != coldID {
			t.Fatalf("span %s/%s from foreign trace %s", sp.Name, sp.ID, sp.Trace)
		}
	}
	kinds := kindSet(spans)
	for _, want := range []string{
		dtrace.KindRequest, // client root
		dtrace.KindCall,    // client logical call
		dtrace.KindAttempt, // client leg + replica 0's peer-lookup legs
		dtrace.KindIngress, // replica 0 HTTP handler
		dtrace.KindCache,   // tier decision
		dtrace.KindLookup,  // replica 0 consulting its peers
		dtrace.KindCompute, // singleflight leader's cold compile
		dtrace.KindPass,    // pipeline passes linked into the trace
	} {
		if kinds[want] == 0 {
			t.Errorf("cold trace missing kind %q (kinds: %v)", want, kinds)
		}
	}

	// The tree must be connected: the ingress span's parent is the client
	// attempt (traceparent propagation), the cache span's parent is the
	// ingress, and the tier decision is an honest miss.
	byID := make(map[string]dtrace.Span)
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	for _, sp := range spans {
		switch sp.Kind {
		case dtrace.KindIngress:
			if p, ok := byID[sp.Parent]; !ok || p.Kind != dtrace.KindAttempt {
				t.Errorf("ingress parent = %+v, want the client attempt span", p)
			}
		case dtrace.KindCache:
			if sp.Attrs["tier"] != "miss" {
				t.Errorf("cold request cache tier = %q, want miss", sp.Attrs["tier"])
			}
			if p, ok := byID[sp.Parent]; !ok || p.Kind != dtrace.KindIngress {
				t.Errorf("cache span parent = %+v, want the ingress span", p)
			}
		case dtrace.KindPass:
			if p, ok := byID[sp.Parent]; !ok || p.Kind != dtrace.KindCompute {
				t.Errorf("pass span parent = %+v, want the compute span", p)
			}
		}
	}

	// Prime replica 2 too (a peer lookup consults one peer per round, and
	// replica 1 may pick either neighbour), then request 2 lands on
	// replica 1, whose local miss must be satisfied by a verified peer
	// hit recorded as the cache tier.
	if code, _ := post[CompileResponse](t, urls[2]+"/compile", CompileRequest{Source: addOneSrc}); code != http.StatusOK {
		t.Fatalf("priming replica 2: status %d", code)
	}
	warmID := farmPost(1)
	warm := fetchSpans(t, urls[1], warmID)
	wkinds := kindSet(warm)
	if wkinds[dtrace.KindPass] != 0 {
		t.Errorf("warm peer-hit trace has %d pass spans, want 0", wkinds[dtrace.KindPass])
	}
	var gotPeer bool
	for _, sp := range warm {
		if sp.Kind == dtrace.KindCache && sp.Attrs["tier"] == "peer" {
			gotPeer = true
		}
	}
	if !gotPeer {
		t.Errorf("warm trace has no cache span with tier=peer (kinds: %v)", wkinds)
	}

	// The cold compile's latency exemplar on replica 0 names the trace.
	snap := servers[0].Metrics().Snapshot()
	h, ok := snap.Histograms["maccd.compile_ns"]
	if !ok {
		t.Fatal("no maccd.compile_ns histogram")
	}
	var exemplarHit bool
	for _, e := range h.Exemplars {
		if e.Trace == coldID {
			exemplarHit = true
		}
	}
	if !exemplarHit {
		t.Errorf("no compile_ns exemplar names the cold trace %s (exemplars: %v)", coldID, h.Exemplars)
	}

	// The default /debug/trace format is loadable Chrome trace JSON with
	// one process row per service (client + serving replica at least).
	resp, err := http.Get(urls[0] + farm.DebugTracePrefix + coldID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	procs := make(map[int]bool)
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Pid] = true
		}
	}
	if len(procs) < 2 {
		t.Errorf("chrome trace has %d process rows, want >= 2 (client + replica)", len(procs))
	}
}

// TestFlightRecorderEndpoints: /debug/flight lists recent traces,
// /debug/farm renders the text dashboard, and a garbage trace ID is a
// clean 400/404 rather than a panic.
func TestFlightRecorderEndpoints(t *testing.T) {
	_, urls := traceFarm(t)
	if code, _ := post[CompileResponse](t, urls[0]+"/compile", CompileRequest{Source: addOneSrc}); code != http.StatusOK {
		t.Fatalf("compile: status %d", code)
	}

	resp, err := http.Get(urls[0] + farm.DebugFlightPath)
	if err != nil {
		t.Fatal(err)
	}
	var dump dtrace.FlightDump
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dump.Schema != dtrace.FlightSchema || len(dump.Traces) == 0 {
		t.Errorf("flight dump: schema %q, %d traces", dump.Schema, len(dump.Traces))
	}
	if dump.Spans != nil {
		t.Error("summary dump included full spans without ?full=1")
	}

	resp, err = http.Get(urls[0] + farm.DebugFarmPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/farm: status %d", resp.StatusCode)
	}

	for _, bad := range []string{"zzz", "00000000000000000000000000000000"} {
		resp, err := http.Get(urls[0] + farm.DebugTracePrefix + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trace id %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err = http.Get(urls[0] + farm.DebugTracePrefix + "deadbeefdeadbeefdeadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", resp.StatusCode)
	}
}

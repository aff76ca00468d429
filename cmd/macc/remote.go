package main

// Remote mode: -server offloads the compile to a maccd farm through the
// resilient farm client (retries with failover and backoff, per-peer
// circuit breakers). The local CLI keeps its output format, so scripts
// cannot tell a farm compile from a local one — except by its speed when
// the farm's shared cache is warm.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"macc/internal/farm"
	"macc/internal/telemetry/dtrace"
)

// remoteOpts carries the subset of CLI flags a farm compile supports.
type remoteOpts struct {
	servers   []string
	file      string
	machine   string
	coalesce  string
	unroll    string
	optimize  bool
	schedule  bool
	registers int
	priority  string
	printRTL  bool
	reports   bool
	run       string
	mem       int
	timeout   time.Duration
	traceID   bool
}

// runRemote executes one compile (or compile+run) against the farm and
// returns the process exit code.
func runRemote(o remoteOpts) int {
	src, err := os.ReadFile(o.file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "macc:", err)
		return 1
	}
	tracer := dtrace.New("macc-cli", 0)
	c := farm.NewClient(farm.ClientOptions{
		Peers:          o.servers,
		AttemptTimeout: o.timeout,
		Tracer:         tracer,
	})

	req := farm.CompileRequest{
		Source:    string(src),
		Machine:   o.machine,
		Coalesce:  o.coalesce,
		Unroll:    o.unroll,
		Optimize:  &o.optimize,
		Schedule:  &o.schedule,
		Registers: o.registers,
		Priority:  o.priority,
	}
	// Root the request's distributed trace here so the farm's spans (and a
	// replica's /debug/trace view) include the CLI's side of the call.
	root := tracer.StartRoot("macc -server "+o.file, dtrace.KindRequest)
	ctx := dtrace.ContextWith(context.Background(), root.Context())
	finishTrace := func() {
		root.End()
		if o.traceID {
			c.ReportTrace(context.Background(), root.TraceID())
			fmt.Fprintf(os.Stderr, "macc: trace %s (inspect at <replica>%s%s)\n",
				root.TraceID(), farm.DebugTracePrefix, root.TraceID())
		}
	}

	if o.run != "" {
		var resp farm.RunResponse
		peer, err := c.PostJSON(ctx, "/run", farm.RunRequest{
			CompileRequest: req,
			Call:           o.run,
			Mem:            o.mem,
		}, &resp)
		finishTrace()
		if err != nil {
			return remoteFail(peer, err)
		}
		fmt.Printf("ret=%d cycles=%d instrs=%d loads=%d stores=%d memrefs=%d icache-misses=%d dcache-misses=%d\n",
			resp.Ret, resp.Cycles, resp.Instrs, resp.Loads, resp.Stores, resp.MemRefs,
			resp.ICacheMisses, resp.DCacheMisses)
		return 0
	}

	var resp farm.CompileResponse
	peer, err := c.PostJSON(ctx, "/compile", req, &resp)
	finishTrace()
	if err != nil {
		return remoteFail(peer, err)
	}
	if resp.Degraded {
		fmt.Fprint(os.Stderr, "macc: compilation completed in degraded mode:\n"+resp.Diagnostics)
	}
	if o.reports {
		for _, r := range resp.Reports {
			fmt.Printf("loop %-24s applied=%-5v %s (wide %dL/%dS, replaced %dL/%dS, sched %d->%d cycles, %d check instrs)\n",
				r.Header, r.Applied, r.Reason, r.WideLoads, r.WideStores,
				r.NarrowLoads, r.NarrowStores, r.CyclesOriginal, r.CyclesCoalesced, r.CheckInstrs)
		}
	}
	if o.printRTL {
		fmt.Print(resp.RTL)
	}
	return 0
}

func remoteFail(peer string, err error) int {
	var se *farm.StatusError
	switch {
	case errors.As(err, &se):
		fmt.Fprintf(os.Stderr, "macc: remote: %v\n", se)
	case errors.Is(err, farm.ErrNoPeers):
		fmt.Fprintln(os.Stderr, "macc: remote: no reachable server (all circuit breakers open); run without -server for a local compile")
	default:
		fmt.Fprintf(os.Stderr, "macc: remote: %v\n", err)
	}
	return 1
}

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

	"macc/internal/farm"
	"macc/internal/telemetry/dtrace"
)

// runRemote executes one compile (or, when req.Call is set, compile+run)
// of the file at path against the farm and returns the process exit code.
// opts.Tracer must be set: it roots the request's trace.
func runRemote(opts farm.ClientOptions, path string, req farm.RunRequest, printRTL, reports, traceID bool) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "macc:", err)
		return 1
	}
	req.Source = string(src)
	c := farm.NewClient(opts)
	// Root the request's distributed trace here so the farm's spans (and a
	// replica's /debug/trace view) include the CLI's side of the call.
	root := opts.Tracer.StartRoot("macc -server "+path, dtrace.KindRequest)
	ctx := dtrace.ContextWith(context.Background(), root.Context())
	finishTrace := func() {
		root.End()
		if traceID {
			c.ReportTrace(context.Background(), root.TraceID())
			fmt.Fprintf(os.Stderr, "macc: trace %s (inspect at <replica>%s%s)\n",
				root.TraceID(), farm.DebugTracePrefix, root.TraceID())
		}
	}

	if req.Call != "" {
		var resp farm.RunResponse
		peer, err := c.PostJSON(ctx, "/run", req, &resp)
		finishTrace()
		if err != nil {
			return remoteFail(peer, err)
		}
		printRun(resp)
		return 0
	}

	var resp farm.CompileResponse
	peer, err := c.PostJSON(ctx, "/compile", req.CompileRequest, &resp)
	finishTrace()
	if err != nil {
		return remoteFail(peer, err)
	}
	if resp.Degraded {
		fmt.Fprint(os.Stderr, "macc: compilation completed in degraded mode:\n"+resp.Diagnostics)
	}
	if reports {
		writeReports(os.Stdout, resp.Reports)
	}
	if printRTL {
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

package main

// Remote mode: -server offloads the compile to a maccd farm through the
// resilient farm client (retries with failover and backoff, per-peer
// circuit breakers). Both modes print a compile's farm.CompileResponse and
// a run's farm.RunResponse through the same writers, so scripts cannot
// tell a farm compile from a local one — except by its speed when the
// farm's shared cache is warm.

import (
	"context"
	"errors"
	"fmt"
	"os"

	"macc/internal/farm"
	"macc/internal/telemetry/dtrace"
)

// runRemote compiles the file at path on the farm and returns the process
// exit code. Both of its requests ride on one trace, rooted in
// opts.Tracer, which must be set.
func runRemote(opts farm.ClientOptions, path string, req farm.RunRequest, sh show, traceID bool) int {
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
	err = post(dtrace.ContextWith(context.Background(), root.Context()), c, req, sh)
	root.End()
	if traceID {
		c.ReportTrace(context.Background(), root.TraceID())
		fmt.Fprintf(os.Stderr, "macc: trace %s (inspect at <replica>%s%s)\n",
			root.TraceID(), farm.DebugTracePrefix, root.TraceID())
	}
	if err == nil {
		return 0
	}
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

// post sends /compile when there is no call or when the compile's reports
// or RTL are asked for, then /run when there is a call, and prints each
// answer as a local compile prints it. The /run compiles the same request
// again, a cache hit on the replica.
func post(ctx context.Context, c *farm.Client, req farm.RunRequest, sh show) error {
	if req.Call == "" || sh.reports || sh.rtl {
		var resp farm.CompileResponse
		if _, err := c.PostJSON(ctx, "/compile", req.CompileRequest, &resp); err != nil {
			return err
		}
		sh.write(os.Stdout, os.Stderr, "", resp, nil)
	}
	if req.Call != "" {
		var resp farm.RunResponse
		if _, err := c.PostJSON(ctx, "/run", req, &resp); err != nil {
			return err
		}
		printRun(os.Stdout, resp)
	}
	return nil
}

package dtrace

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one Chrome trace_event entry ("ph":"X" complete events
// plus "M" metadata rows), loadable in about://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders spans (one assembled trace, or a compile's pass
// spans straight from a telemetry.Recorder) as Chrome trace_event JSON.
// Each service becomes a process row (pid); within a service, spans are
// packed into lanes (tids) greedily so that overlapping-but-unrelated
// spans — concurrent calls' attempts — render on separate rows instead of
// interleaving, while properly nested spans share their parent's lane.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	sorted := append([]Span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		// Longer span first at equal start: parents open before children.
		return sorted[i].Dur > sorted[j].Dur
	})

	// Stable pid per service, in first-appearance order.
	pids := make(map[string]int)
	var services []string
	for _, s := range sorted {
		if _, ok := pids[s.Service]; !ok {
			pids[s.Service] = len(pids) + 1
			services = append(services, s.Service)
		}
	}

	var epoch int64
	if len(sorted) > 0 {
		epoch = sorted[0].Start
	}

	tf := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for i, svc := range services {
		tf.TraceEvents = append(tf.TraceEvents, chromeEvent{
			Name: "process_name", Cat: "__metadata", Ph: "M", Pid: i + 1,
			Args: map[string]any{"name": svc},
		})
	}

	// laneEnd[pid] holds, per lane, a stack of open interval end times;
	// a span fits a lane if it nests inside the innermost open interval,
	// or if the lane's intervals have all closed before it starts.
	type lane struct{ ends []int64 }
	lanes := make(map[int][]*lane)
	for _, s := range sorted {
		pid := pids[s.Service]
		end := s.Start + s.Dur
		tid := 0
		for i, ln := range lanes[pid] {
			for len(ln.ends) > 0 && ln.ends[len(ln.ends)-1] <= s.Start {
				ln.ends = ln.ends[:len(ln.ends)-1]
			}
			if len(ln.ends) == 0 || end <= ln.ends[len(ln.ends)-1] {
				ln.ends = append(ln.ends, end)
				tid = i + 1
				break
			}
		}
		if tid == 0 {
			lanes[pid] = append(lanes[pid], &lane{ends: []int64{end}})
			tid = len(lanes[pid])
		}

		args := map[string]any{
			"service": s.Service,
			"kind":    s.Kind,
		}
		if s.Trace != "" { // unlinked pass spans have no trace identity
			args["trace"], args["span"] = s.Trace, s.ID
		}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		cat := s.Kind
		if cat == "" {
			cat = "span"
		}
		if s.Err != "" {
			args["error"] = s.Err
			cat = cat + ",error"
		}
		tf.TraceEvents = append(tf.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  cat,
			Ph:   "X",
			Ts:   float64(s.Start-epoch) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			Pid:  pid,
			Tid:  tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

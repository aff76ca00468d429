package sim

import (
	"fmt"
	"sort"
	"strings"
)

// BlockProfile reports how often one basic block executed during Run.
type BlockProfile struct {
	Fn     string
	Block  string
	Execs  int64
	Instrs int64 // Execs × block length
}

// EnableProfile turns on per-block execution counting for subsequent Run
// calls (small overhead; off by default). Counters live in the decoded
// image, indexed by block number. Calling EnableProfile again resets the
// counters.
func (s *Sim) EnableProfile() {
	s.profiling = true
	for _, df := range s.st.img.fns {
		df.execs = make([]int64, len(df.blocks))
	}
}

// Profile returns the blocks executed since EnableProfile, hottest first.
func (s *Sim) Profile() []BlockProfile {
	var out []BlockProfile
	for _, df := range s.st.img.fns {
		// The last entry is the phantom block (see decode); it is never
		// reported.
		for bi := 0; bi < len(df.execs)-1; bi++ {
			n := df.execs[bi]
			if n == 0 {
				continue
			}
			b := &df.blocks[bi]
			out = append(out, BlockProfile{
				Fn:     df.name,
				Block:  b.name,
				Execs:  n,
				Instrs: n * int64(b.ninstr),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Instrs != out[j].Instrs {
			return out[i].Instrs > out[j].Instrs
		}
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].Block < out[j].Block
	})
	return out
}

// FormatProfile renders the top-n profile rows as a table.
func FormatProfile(rows []BlockProfile, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %-28s %12s %14s\n", "function", "block", "execs", "instrs")
	for i, r := range rows {
		if i >= n {
			break
		}
		fmt.Fprintf(&sb, "%-16s %-28s %12d %14d\n", r.Fn, r.Block, r.Execs, r.Instrs)
	}
	return sb.String()
}

package report

import (
	"fmt"
	"io"
	"sort"
)

// Change records one loop whose coalescing verdict flipped between two
// reports. Verdict carries the new state; OldReason the reason it left
// behind.
type Change struct {
	Verdict
	OldReason string `json:"old_reason,omitempty"`
}

// Diff is the loop-by-loop comparison of two reports over the same corpus.
type Diff struct {
	OldCoverage float64 `json:"old_coverage"`
	NewCoverage float64 `json:"new_coverage"`
	// Regressions are loops that flipped Passed→Missed.
	Regressions []Change `json:"regressions,omitempty"`
	// Wins are loops that flipped Missed→Passed.
	Wins []Change `json:"wins,omitempty"`
	// Added/Removed are loops present in only one report (source or
	// generator changes; a Removed loop that was Passed also gates).
	Added   []Verdict `json:"added,omitempty"`
	Removed []Verdict `json:"removed,omitempty"`
	// Warnings carries non-fatal comparability notes (host mismatch).
	Warnings []string `json:"warnings,omitempty"`
}

// DiffReports compares old and new loop by loop. It errors when the
// artifacts are not comparable at all — different schemas or different
// corpora. A host mismatch only warns: compile decisions are deterministic
// and host-insensitive, unlike the performance ratios hotpath gates on.
func DiffReports(oldRep, newRep *Report) (*Diff, error) {
	if err := oldRep.Provenance.CheckComparable(newRep.Provenance); err != nil {
		return nil, err
	}
	if oldRep.Corpus != newRep.Corpus {
		return nil, fmt.Errorf("corpus mismatch: old %q vs new %q — reports over different workloads are not diffable", oldRep.Corpus, newRep.Corpus)
	}
	d := &Diff{OldCoverage: oldRep.Coverage, NewCoverage: newRep.Coverage}
	if !oldRep.Provenance.SameHost(newRep.Provenance) {
		d.Warnings = append(d.Warnings, fmt.Sprintf(
			"host mismatch (old %s, new %s): verdicts are host-insensitive, proceeding",
			oldRep.Provenance.Host(), newRep.Provenance.Host()))
	}
	oldByID := make(map[string]Verdict, len(oldRep.Loops))
	for _, v := range oldRep.Loops {
		oldByID[v.ID()] = v
	}
	for _, nv := range newRep.Loops {
		ov, ok := oldByID[nv.ID()]
		if !ok {
			d.Added = append(d.Added, nv)
			continue
		}
		delete(oldByID, nv.ID())
		switch {
		case ov.Passed && !nv.Passed:
			d.Regressions = append(d.Regressions, Change{Verdict: nv, OldReason: ov.Reason})
		case !ov.Passed && nv.Passed:
			d.Wins = append(d.Wins, Change{Verdict: nv, OldReason: ov.Reason})
		}
	}
	for _, ov := range oldByID {
		d.Removed = append(d.Removed, ov)
	}
	sortChanges(d.Regressions)
	sortChanges(d.Wins)
	sortVerdicts(d.Added)
	sortVerdicts(d.Removed)
	return d, nil
}

func sortChanges(cs []Change) { sort.Slice(cs, func(i, j int) bool { return cs[i].ID() < cs[j].ID() }) }
func sortVerdicts(vs []Verdict) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID() < vs[j].ID() })
}

// Gate returns a non-nil error when the diff contains any coalescing
// regression: a loop that flipped Passed→Missed, or a previously-Passed
// loop that disappeared entirely. Wins and added loops never gate.
func (d *Diff) Gate() error {
	lostPassed := 0
	for _, v := range d.Removed {
		if v.Passed {
			lostPassed++
		}
	}
	if len(d.Regressions) == 0 && lostPassed == 0 {
		return nil
	}
	return fmt.Errorf("coalescing regressed: %d loop(s) flipped Passed→Missed, %d Passed loop(s) vanished",
		len(d.Regressions), lostPassed)
}

// WriteText renders the diff as a human-readable summary.
func (d *Diff) WriteText(w io.Writer) {
	fmt.Fprintf(w, "coverage: %.1f%% -> %.1f%%\n", 100*d.OldCoverage, 100*d.NewCoverage)
	for _, warn := range d.Warnings {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
	for _, c := range d.Regressions {
		fmt.Fprintf(w, "REGRESSION %s [%s/%s]: Passed (%s) -> Missed (%s)\n",
			c.Key, c.Machine, c.Config, c.OldReason, c.Reason)
	}
	for _, c := range d.Wins {
		fmt.Fprintf(w, "win %s [%s/%s]: Missed (%s) -> Passed (%s)\n",
			c.Key, c.Machine, c.Config, c.OldReason, c.Reason)
	}
	if len(d.Added) > 0 {
		fmt.Fprintf(w, "added: %d loop(s)\n", len(d.Added))
	}
	for _, v := range d.Removed {
		state := "Missed"
		if v.Passed {
			state = "Passed"
		}
		fmt.Fprintf(w, "removed %s [%s/%s]: was %s\n", v.Key, v.Machine, v.Config, state)
	}
	if len(d.Regressions) == 0 && len(d.Wins) == 0 && len(d.Added) == 0 && len(d.Removed) == 0 {
		fmt.Fprintln(w, "no verdict changes")
	}
}

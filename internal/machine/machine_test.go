package machine_test

import (
	"testing"

	"macc/internal/machine"
	"macc/internal/rtl"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"alpha", "m88100", "m68030"} {
		m, ok := machine.ByName(name)
		if !ok || m.Name != name {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := machine.ByName("pdp11"); ok {
		t.Error("unknown machine accepted")
	}
	if len(machine.All()) != 3 {
		t.Error("All() should return the paper's three targets")
	}
}

func TestMaxCoalesceFactor(t *testing.T) {
	alpha := machine.Alpha()
	cases := []struct {
		w    rtl.Width
		want int
	}{{rtl.W1, 8}, {rtl.W2, 4}, {rtl.W4, 2}, {rtl.W8, 1}}
	for _, c := range cases {
		if got := alpha.MaxCoalesceFactor(c.w); got != c.want {
			t.Errorf("alpha factor(%d) = %d, want %d", c.w, got, c.want)
		}
	}
	m88 := machine.M88100()
	if m88.MaxCoalesceFactor(rtl.W1) != 4 || m88.MaxCoalesceFactor(rtl.W4) != 1 {
		t.Error("m88100 factors wrong")
	}
}

func TestOccupancyDefaultsToOne(t *testing.T) {
	m := machine.M68030()
	in := rtl.LoadI(1, rtl.R(0), 0, rtl.W1, false)
	if got := m.Exec.OccOf(in.Op, in.Width); got != 1 {
		t.Errorf("occupancy default = %d, want 1", got)
	}
	alpha := machine.Alpha()
	if got := alpha.Exec.OccOf(in.Op, in.Width); got <= 1 {
		t.Errorf("alpha narrow load occupancy = %d, want the emulation sequence", got)
	}
	wide := rtl.LoadI(1, rtl.R(0), 0, rtl.W8, false)
	if got := alpha.Exec.OccOf(wide.Op, wide.Width); got != 1 {
		t.Errorf("alpha wide load occupancy = %d, want 1", got)
	}
}

// TestISAShapeProperties pins the qualitative ISA facts the paper's results
// hinge on, so cost-table edits cannot silently invert the reproduction.
func TestISAShapeProperties(t *testing.T) {
	alpha, m88, m030 := machine.Alpha(), machine.M88100(), machine.M68030()

	// Alpha: narrow memory ops are much more expensive than wide ones.
	if alpha.Exec.Load[rtl.W1] <= alpha.Exec.Load[rtl.W8] {
		t.Error("alpha narrow load must out-cost wide load")
	}
	if alpha.Exec.StoreOcc[rtl.W1] <= 1 {
		t.Error("alpha narrow store must be a read-modify-write sequence")
	}
	// M88100: extract cheap, insert expensive at execution.
	if m88.Exec.Insert <= m88.Exec.Extract {
		t.Error("m88100 insert must out-cost extract")
	}
	// ...but the compiler's table understates insert (the Table III gap).
	if m88.Sched.Insert >= m88.Exec.Insert {
		t.Error("m88100 scheduler must believe the datasheet insert cost")
	}
	// M68030: extract/insert execute slower than narrow memory ops.
	if m030.Exec.Extract <= m030.Exec.Load[rtl.W1]-1 {
		t.Error("m68030 extract must rival memory cost")
	}
	if m030.Sched.Extract >= m030.Exec.Extract {
		t.Error("m68030 scheduler must underestimate extract")
	}
	if m030.Pipelined {
		t.Error("m68030 is microcoded, not pipelined")
	}
	if !alpha.MustAlign || !m88.MustAlign || m030.MustAlign {
		t.Error("alignment requirements wrong")
	}
	if alpha.WordBytes != rtl.W8 || m88.WordBytes != rtl.W4 || m030.WordBytes != rtl.W4 {
		t.Error("word widths wrong")
	}
}

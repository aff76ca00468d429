package farm

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"macc"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/rtl"
)

func TestParseCall(t *testing.T) {
	cases := []struct {
		in   string
		name string
		args []int64
	}{
		{"dotproduct(4096, 8192, 100)", "dotproduct", []int64{4096, 8192, 100}},
		{"f()", "f", nil},
		{"f( )", "f", nil},
		{" f (7)", "f", []int64{7}},
		{"f(0x10, -3)", "f", []int64{16, -3}},
		{"f(1, -2, 0x10)", "f", []int64{1, -2, 16}},
		{"f(0x10)", "f", []int64{16}},
	}
	for _, tc := range cases {
		name, args, err := ParseCall(tc.in)
		if err != nil || name != tc.name || !reflect.DeepEqual(args, tc.args) {
			t.Errorf("ParseCall(%q) = %q %v %v, want %q %v", tc.in, name, args, err, tc.name, tc.args)
		}
	}
	for _, bad := range []string{"", "f", "f(1", "f(x)", "(1)", "f(1x)", "f(1,)", "f(1 2)"} {
		if name, args, err := ParseCall(bad); err == nil {
			t.Errorf("ParseCall(%q) = %q %v, want an error", bad, name, args)
		}
	}
}

// TestCompileRequestConfig pins the one reading of the request vocabulary:
// every accepted spelling of each field, every rejection, and the zero
// request's default.
func TestCompileRequestConfig(t *testing.T) {
	no := false
	yes := true
	both := core.Options{Loads: true, Stores: true}
	// base is what every case below shares unless it says otherwise.
	base := macc.Config{Optimize: true, Schedule: true, Unroll: true, Coalesce: both}
	with := func(edit func(*macc.Config)) macc.Config {
		c := base
		edit(&c)
		return c
	}
	cases := []struct {
		name    string
		req     CompileRequest
		machine string
		want    macc.Config
	}{
		{"zero", CompileRequest{}, "alpha", base},
		{"source and priority unread", CompileRequest{Source: "int f(int x) { return x; }", Priority: PriorityBatch}, "alpha", base},
		{"alpha", CompileRequest{Machine: "alpha"}, "alpha", base},
		{"m88100", CompileRequest{Machine: "m88100"}, "m88100", base},
		{"m68030", CompileRequest{Machine: "m68030"}, "m68030", base},
		{"coalesce both", CompileRequest{Coalesce: "both"}, "alpha", base},
		{"coalesce loads", CompileRequest{Coalesce: "loads"}, "alpha",
			with(func(c *macc.Config) { c.Coalesce = core.Options{Loads: true} })},
		{"coalesce stores", CompileRequest{Coalesce: "stores"}, "alpha",
			with(func(c *macc.Config) { c.Coalesce = core.Options{Stores: true} })},
		{"coalesce off", CompileRequest{Coalesce: "off"}, "alpha",
			with(func(c *macc.Config) { c.Coalesce = core.Options{} })},
		{"unroll auto", CompileRequest{Unroll: "auto"}, "alpha", base},
		{"unroll off", CompileRequest{Unroll: "off"}, "alpha",
			with(func(c *macc.Config) { c.Unroll = false })},
		{"unroll 2", CompileRequest{Unroll: "2"}, "alpha",
			with(func(c *macc.Config) { c.UnrollFactor = 2 })},
		{"unroll 4", CompileRequest{Unroll: "4"}, "alpha",
			with(func(c *macc.Config) { c.UnrollFactor = 4 })},
		{"optimize false", CompileRequest{Optimize: &no}, "alpha",
			with(func(c *macc.Config) { c.Optimize = false })},
		{"optimize true", CompileRequest{Optimize: &yes}, "alpha", base},
		{"schedule false", CompileRequest{Schedule: &no}, "alpha",
			with(func(c *macc.Config) { c.Schedule = false })},
		{"schedule true", CompileRequest{Schedule: &yes}, "alpha", base},
		{"registers 0", CompileRequest{Registers: 0}, "alpha", base},
		{"registers 8", CompileRequest{Registers: 8}, "alpha",
			with(func(c *macc.Config) { c.Registers = 8 })},
		{"m88100 loads unroll 4 regs 8", CompileRequest{Machine: "m88100", Coalesce: "loads", Unroll: "4", Registers: 8}, "m88100",
			with(func(c *macc.Config) {
				c.Coalesce = core.Options{Loads: true}
				c.UnrollFactor = 4
				c.Registers = 8
			})},
	}
	for _, tc := range cases {
		got, err := tc.req.Config()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got.Machine == nil || got.Machine.Name != tc.machine {
			t.Errorf("%s: machine %v, want %s", tc.name, got.Machine, tc.machine)
			continue
		}
		got.Machine = nil
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: config %+v, want %+v", tc.name, got, tc.want)
		}
	}

	// The zero request is the library's default optimizing configuration.
	got, err := CompileRequest{}.Config()
	if err != nil {
		t.Fatal(err)
	}
	def := macc.DefaultConfig()
	if got.Machine.Name != def.Machine.Name {
		t.Errorf("zero request machine %s, want %s", got.Machine.Name, def.Machine.Name)
	}
	got.Machine, def.Machine = nil, nil
	if !reflect.DeepEqual(got, def) {
		t.Errorf("zero request config %+v, want macc.DefaultConfig %+v", got, def)
	}

	for _, bad := range []CompileRequest{
		{Machine: "vax"},
		{Machine: "Alpha"},
		{Coalesce: "sideways"},
		{Coalesce: "none"},
		{Unroll: "1"},
		{Unroll: "0"},
		{Unroll: "-4"},
		{Unroll: "x"},
		{Registers: -1},
	} {
		if _, err := bad.Config(); err == nil {
			t.Errorf("%+v.Config() accepted, want an error", bad)
		}
	}
}

// TestWriteData checks that each write lands at its own width and that a
// bad width or a write reaching outside memory is refused before it lands.
func TestWriteData(t *testing.T) {
	prog, err := macc.Compile("int f(int x) { return x; }", macc.Config{Machine: machine.Alpha()})
	if err != nil {
		t.Fatal(err)
	}
	s := prog.NewSim(64)
	defer s.Release()
	if err := writeData(s, []DataWrite{
		{Addr: 0, Width: 2, Ints: []int64{1, -2}},
		{Addr: 8, Width: 8, Ints: []int64{7}},
		{Addr: 60, Width: 4, Ints: []int64{9}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadInts(0, rtl.W2, 2, true); !reflect.DeepEqual(got, []int64{1, -2}) {
		t.Errorf("width-2 write read back %v", got)
	}
	if got := s.ReadInts(4, rtl.W4, 1, false); got[0] != 0 {
		t.Errorf("bytes after the width-2 write hold %d, want 0", got[0])
	}
	if got := s.ReadInts(8, rtl.W8, 1, true); got[0] != 7 {
		t.Errorf("width-8 write read back %d", got[0])
	}
	for _, bad := range []DataWrite{
		{Addr: 0, Width: 3, Ints: []int64{1}},
		{Addr: 0, Width: 0, Ints: []int64{1}},
		{Addr: -1, Width: 1, Ints: []int64{1}},
		{Addr: 61, Width: 4, Ints: []int64{1}},
		{Addr: 56, Width: 8, Ints: []int64{1, 2}},
	} {
		if err := writeData(s, []DataWrite{bad}); err == nil {
			t.Errorf("writeData(%+v) accepted, want an error", bad)
		}
	}
	if got := s.ReadInts(56, rtl.W8, 1, false); got[0] != 9<<32 {
		t.Errorf("a refused write changed memory: [56, 64) holds %#x", got[0])
	}
}

func TestRunRequestPrepare(t *testing.T) {
	prog, err := macc.Compile("int sum2(int *a) { a[2] = a[0] + a[1]; return a[2]; }", macc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	compiledAt := 0
	compile := func(mem int) (*macc.Program, error) {
		compiledAt = mem
		return prog, nil
	}
	for _, tc := range []struct{ mem, want int }{{0, 1 << 20}, {-1, 1 << 20}, {4096, 4096}} {
		req := RunRequest{Call: "sum2(0x100)", Mem: tc.mem, Data: []DataWrite{{Addr: 256, Width: 4, Ints: []int64{3, 4}}}}
		s, name, args, err := req.Prepare(compile)
		if err != nil {
			t.Fatalf("Mem %d: %v", tc.mem, err)
		}
		if compiledAt != tc.want || len(s.Mem) != tc.want {
			t.Errorf("Mem %d: compile saw %d, simulator has %d bytes, want %d", tc.mem, compiledAt, len(s.Mem), tc.want)
		}
		res, err := s.Run(name, args...)
		s.Release()
		if err != nil {
			t.Fatal(err)
		}
		resp := NewRunResponse(res, true)
		if resp.Ret != 7 || resp.Loads != res.Loads || resp.Stores != 1 || resp.MemRefs != res.Loads+res.Stores || !resp.Cached {
			t.Errorf("Mem %d: run answered %+v from %+v", tc.mem, resp, res)
		}
	}

	compiledAt = 0
	if _, _, _, err := (RunRequest{Call: "sum2(1"}).Prepare(compile); err == nil || !strings.HasPrefix(err.Error(), "bad call: ") {
		t.Errorf("bad call: err %v, want a bad call error", err)
	}
	if compiledAt != 0 {
		t.Error("a bad call reached compile")
	}
	boom := errors.New("boom")
	if _, _, _, err := (RunRequest{Call: "sum2(0)"}).Prepare(func(int) (*macc.Program, error) { return nil, boom }); err != boom {
		t.Errorf("compile error came back as %v", err)
	}
	for _, bad := range []DataWrite{
		{Addr: 0, Width: 3, Ints: []int64{1}},
		{Addr: 4092, Width: 4, Ints: []int64{1, 2}},
	} {
		req := RunRequest{Call: "sum2(0)", Mem: 4096, Data: []DataWrite{bad}}
		if s, _, _, err := req.Prepare(compile); err == nil || s != nil {
			t.Errorf("data %+v: simulator %v, err %v, want an error and no simulator", bad, s, err)
		}
	}
}

package macc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"macc/internal/ccache"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/rtl"
)

// fmtFingerprint and fmtMachineFingerprint are the fmt renderings that first
// defined the cache-key fingerprints. The strconv builders must reproduce
// them byte for byte: a changed fingerprint orphans every entry on disk.
func fmtFingerprint(cfg Config) string {
	return fmt.Sprintf("opt=%t;unroll=%t;factor=%d;coalesce=%t/%t/%t/%t;sched=%t;regs=%d;strict=%t",
		cfg.Optimize, cfg.Unroll, cfg.UnrollFactor,
		cfg.Coalesce.Loads, cfg.Coalesce.Stores, cfg.Coalesce.Force,
		cfg.Coalesce.NoRuntimeChecks, cfg.Schedule, cfg.Registers, cfg.Strict)
}

func fmtMachineFingerprint(m *machine.Machine) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s;word=%d;align=%t;pipe=%t;icache=%d/%d/%d;dcache=%d/%d",
		m.Name, m.WordBytes, m.MustAlign, m.Pipelined,
		m.ICacheBytes, m.BytesPerInstr, m.ICacheMissPenalty,
		m.DCacheBytes, m.DCacheMissPenalty)
	for _, c := range []*machine.Costs{&m.Sched, &m.Exec} {
		fmt.Fprintf(&sb, ";alu=%d,mul=%d,div=%d,x=%d,i=%d,br=%d,call=%d,xo=%d,io=%d",
			c.Alu, c.Mul, c.Div, c.Extract, c.Insert, c.Branch, c.Call,
			c.ExtractOcc, c.InsertOcc)
		for _, w := range []rtl.Width{rtl.W1, rtl.W2, rtl.W4, rtl.W8} {
			fmt.Fprintf(&sb, ",l%d=%d/%d,s%d=%d/%d",
				w, c.Load[w], c.LoadOcc[w], w, c.Store[w], c.StoreOcc[w])
		}
	}
	return sb.String()
}

// fingerprintConfigs covers every fingerprinted Config field: each bool
// set alone, the integer fields at zero, small, negative and extreme
// values, and everything set at once.
func fingerprintConfigs() []Config {
	cfgs := []Config{{}, DefaultConfig(), BaselineConfig(nil)}
	for _, set := range []func(*Config){
		func(c *Config) { c.Optimize = true },
		func(c *Config) { c.Unroll = true },
		func(c *Config) { c.Coalesce.Loads = true },
		func(c *Config) { c.Coalesce.Stores = true },
		func(c *Config) { c.Coalesce.Force = true },
		func(c *Config) { c.Coalesce.NoRuntimeChecks = true },
		func(c *Config) { c.Schedule = true },
		func(c *Config) { c.Strict = true },
	} {
		var c Config
		set(&c)
		cfgs = append(cfgs, c)
	}
	for _, v := range []int{1, 4, 16, -1, -8, math.MaxInt64, math.MinInt64} {
		cfgs = append(cfgs, Config{UnrollFactor: v}, Config{Registers: v})
	}
	return append(cfgs, Config{
		Optimize: true, Unroll: true, UnrollFactor: -3,
		Coalesce: core.Options{Loads: true, Stores: true, Force: true, NoRuntimeChecks: true},
		Schedule: true, Registers: 16, Strict: true,
	})
}

// fingerprintMachines is machine.All() plus a model whose every field
// differs from theirs: a separator-laden name, negative costs, nil
// occupancy tables and a width missing from the latency tables.
func fingerprintMachines() []*machine.Machine {
	odd := machine.M68030()
	odd.Name = "odd;name=1/2"
	odd.WordBytes = rtl.W2
	odd.MustAlign, odd.Pipelined = !odd.MustAlign, !odd.Pipelined
	odd.ICacheBytes, odd.BytesPerInstr, odd.ICacheMissPenalty = 0, -4, math.MaxInt64
	odd.DCacheBytes, odd.DCacheMissPenalty = math.MinInt64, 7
	odd.Exec = machine.Costs{Alu: -1, Mul: 2, Div: 3, Extract: 4, Insert: 5, Branch: 6, Call: 7,
		ExtractOcc: 8, InsertOcc: -9, Load: map[rtl.Width]int{rtl.W1: 11, rtl.W8: -12}}
	return append(machine.All(), odd)
}

func TestFingerprintsMatchFmtRendering(t *testing.T) {
	for _, cfg := range fingerprintConfigs() {
		if got, want := cfg.fingerprint(), fmtFingerprint(cfg); got != want {
			t.Errorf("fingerprint:\n got %s\nwant %s", got, want)
		}
	}
	for _, m := range fingerprintMachines() {
		if got, want := machineFingerprint(m), fmtMachineFingerprint(m); got != want {
			t.Errorf("%s machineFingerprint:\n got %s\nwant %s", m.Name, got, want)
		}
	}
}

// TestCacheKeyPinned pins one cache key as a hex digest: the key of a small
// source under the default configuration on each paper machine. It moves
// only if the key derivation, a fingerprint, a machine model or the cache
// schema version changes — and then every disk entry is orphaned.
func TestCacheKeyPinned(t *testing.T) {
	const src = "int f(int x) { return x + 1; }\n"
	want := map[string]string{
		"alpha":  "2aa18b466032c6be9128a7500f07c7bcd6287c2035b89cdbb780fedb7bc68527",
		"m88100": "67cda8028486835b67daaa21b4189b94cee1508e99cb620c56ede82171babe4c",
		"m68030": "f7c9b2444d53872b5249a7a9188b132ab7db11615f32f6d046574a1e28ff3327",
	}
	cfg := DefaultConfig()
	for _, m := range machine.All() {
		if got := ccache.KeyOf(src, cfg.fingerprint(), machineFingerprint(m)).String(); got != want[m.Name] {
			t.Errorf("%s: key %s, want %s", m.Name, got, want[m.Name])
		}
	}
}

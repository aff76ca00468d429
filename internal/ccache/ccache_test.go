package ccache

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"macc/internal/core"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
)

// prog builds a tiny valid program whose printed size scales with pad.
func prog(t *testing.T, name string, pad int) *rtl.Program {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(r0) {\nentry:\n", name)
	for i := 0; i < pad; i++ {
		fmt.Fprintf(&sb, "\tr%d = r0 + %d\n", i+1, i)
	}
	fmt.Fprintf(&sb, "\tret r0\n}\n")
	p, err := rtl.ParseProgram(sb.String())
	if err != nil {
		t.Fatalf("prog: %v", err)
	}
	return p
}

func flatOf(t *testing.T, p *rtl.Program) *rtl.FlatProgram {
	t.Helper()
	fp, err := rtl.Flatten(p)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	return fp
}

func entryFor(t *testing.T, name string, pad int) Entry {
	return Entry{
		Flat:     flatOf(t, prog(t, name, pad)),
		Machine:  "alpha",
		Reports:  []core.LoopReport{{Header: "loop", Fn: name, Applied: true, Reason: "test"}},
		Unrolled: map[string]int{name: 4},
	}
}

// mustPrint materializes the entry and prints it.
func mustPrint(t *testing.T, e Entry) string {
	t.Helper()
	p, err := e.Materialize()
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return p.String()
}

func TestKeyOfDistinctAndStable(t *testing.T) {
	base := KeyOf("src", "cfg", "alpha")
	if base != KeyOf("src", "cfg", "alpha") {
		t.Fatal("KeyOf not deterministic")
	}
	for _, k := range []Key{
		KeyOf("src2", "cfg", "alpha"),
		KeyOf("src", "cfg2", "alpha"),
		KeyOf("src", "cfg", "m88100"),
		// Length prefixing: moving a byte across a field boundary must
		// change the key.
		KeyOf("srcc", "fg", "alpha"),
	} {
		if k == base {
			t.Fatalf("key collision: %s", k)
		}
	}
}

func TestMemHitReturnsSharedFlatAndMaterializeIsolates(t *testing.T) {
	c := New(Options{})
	key := KeyOf("a", "b", "c")
	c.Put(key, entryFor(t, "f", 2))

	e, ok := c.Get(key)
	if !ok {
		t.Fatal("expected memory hit")
	}
	if got := c.Metrics().CounterValue("ccache.mem_hits"); got != 1 {
		t.Fatalf("mem_hits = %d", got)
	}
	// A hit hands out the shared flat image — no clone-on-hit copies.
	e2, _ := c.Get(key)
	if e2.Flat != e.Flat {
		t.Fatal("mem hit did not share the flat image")
	}
	// Materialize builds a private pointer graph each time.
	m1, err := e.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 || m1.Fns[0] == m2.Fns[0] {
		t.Fatal("Materialize returned shared structure")
	}
	want := m2.String()
	// Mutating one materialization must not poison the cached image.
	m1.Fns[0].Blocks[0].Instrs[0].Disp = 999
	e3, _ := c.Get(key)
	if got := mustPrint(t, e3); got != want {
		t.Fatal("cached image was mutated through a materialization")
	}
	if r := e.CloneReports(); &r[0] == &e.Reports[0] {
		t.Fatal("CloneReports shares backing array")
	}
	u := e.CloneUnrolled()
	u["f"] = 99
	if e.Unrolled["f"] != 4 {
		t.Fatal("CloneUnrolled shares map")
	}
}

func TestLRUEvictionUnderTinyBudget(t *testing.T) {
	c := New(Options{MemBudget: 2048})
	k1, k2, k3 := KeyOf("1", "", ""), KeyOf("2", "", ""), KeyOf("3", "", "")
	c.Put(k1, entryFor(t, "f1", 20))
	c.Put(k2, entryFor(t, "f2", 20))
	if _, ok := c.Get(k1); !ok {
		t.Fatal("k1 evicted too early")
	}
	// k1 is now most recent, so inserting k3 must evict k2.
	c.Put(k3, entryFor(t, "f3", 20))
	if _, ok := c.Get(k2); ok {
		t.Fatal("expected k2 evicted")
	}
	if _, ok := c.Get(k1); !ok {
		t.Fatal("expected k1 retained (recently used)")
	}
	if _, ok := c.Get(k3); !ok {
		t.Fatal("expected k3 retained (newest)")
	}
	if ev := c.Metrics().CounterValue("ccache.evictions"); ev == 0 {
		t.Fatal("evictions counter did not move")
	}
	if n := c.Metrics().Gauge("ccache.entries").Value(); c.Bytes() > 2048 && n > 1 {
		t.Fatalf("budget not enforced: %d bytes in %v entries", c.Bytes(), n)
	}
	if err := c.checkAccounting(); err != nil {
		t.Fatal(err)
	}
	// A single entry larger than the budget stays resident (the cache
	// always keeps the most recent compile).
	big := New(Options{MemBudget: 10})
	big.Put(k1, entryFor(t, "f", 50))
	if _, ok := big.Get(k1); !ok {
		t.Fatal("most recent entry must survive even over budget")
	}
}

// TestAccountingChargesEncodedSize pins the LRU cost model: an entry's
// charge is the actual encoded envelope size plus fixed overhead, and the
// cache-wide byte counter stays equal to the sum of live entry charges
// through puts, refreshing overwrites of different sizes, and evictions.
func TestAccountingChargesEncodedSize(t *testing.T) {
	c := New(Options{})
	key := KeyOf("acct", "", "")
	e := entryFor(t, "f", 8)
	data, err := EncodeEntry(key, e)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key, e)
	if got, want := c.Bytes(), int64(len(data))+entryOverhead; got != want {
		t.Fatalf("charged %d bytes, want encoded %d + overhead %d", got, len(data), entryOverhead)
	}
	// Overwriting the key with a smaller entry must re-charge, not leak the
	// old size.
	small := entryFor(t, "f", 1)
	smallData, err := EncodeEntry(key, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(smallData) >= len(data) {
		t.Fatalf("fixture broken: %d >= %d", len(smallData), len(data))
	}
	c.Put(key, small)
	if got, want := c.Bytes(), int64(len(smallData))+entryOverhead; got != want {
		t.Fatalf("after overwrite charged %d, want %d", got, want)
	}
	if err := c.checkAccounting(); err != nil {
		t.Fatal(err)
	}
	// Churn a tiny-budget cache and re-verify the invariant after the dust
	// settles: evictions must subtract exactly what insertion added.
	tiny := New(Options{MemBudget: 1500})
	for i := 0; i < 40; i++ {
		tiny.Put(KeyOf(fmt.Sprintf("k%d", i), "", ""), entryFor(t, fmt.Sprintf("f%d", i), i%7))
		if err := tiny.checkAccounting(); err != nil {
			t.Fatalf("after put %d: %v", i, err)
		}
	}
	if tiny.Metrics().CounterValue("ccache.evictions") == 0 {
		t.Fatal("churn produced no evictions")
	}
}

func TestDiskTierRoundTripAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	key := KeyOf("src", "cfg", "alpha")
	want := entryFor(t, "f", 3)

	a := New(Options{Dir: dir})
	a.Put(key, want)

	// A fresh cache (new "process") must hit the disk tier and promote.
	b := New(Options{Dir: dir})
	got, ok := b.Get(key)
	if !ok {
		t.Fatal("expected disk hit")
	}
	if mustPrint(t, got) != mustPrint(t, want) {
		t.Fatalf("disk round trip not lossless:\n%s\nvs\n%s", mustPrint(t, got), mustPrint(t, want))
	}
	if len(got.Reports) != 1 || got.Reports[0].Reason != "test" || got.Unrolled["f"] != 4 {
		t.Fatalf("side records lost: %+v %+v", got.Reports, got.Unrolled)
	}
	if b.Metrics().CounterValue("ccache.disk_hits") != 1 {
		t.Fatal("disk_hits counter did not move")
	}
	// Promoted: second Get is a memory hit.
	if _, ok := b.Get(key); !ok || b.Metrics().CounterValue("ccache.mem_hits") != 1 {
		t.Fatal("disk hit was not promoted to the memory tier")
	}
}

// reseal recomputes the envelope's FNV-64a trailer over body and appends it,
// letting tests craft envelopes that pass the checksum but fail a deeper
// validation layer.
func reseal(body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(body, h.Sum64())
}

// forgeEnvelope builds a checksum-valid envelope with the given metadata and
// program payload bytes.
func forgeEnvelope(t *testing.T, meta entryMeta, progBytes []byte) []byte {
	t.Helper()
	mb, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), envelopeMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(mb)))
	buf = append(buf, mb...)
	buf = binary.AppendUvarint(buf, uint64(len(progBytes)))
	buf = append(buf, progBytes...)
	return reseal(buf)
}

func TestDiskCorruptTruncatedAndStaleAreMisses(t *testing.T) {
	corrupt := func(name string, f func(t *testing.T, key Key, data []byte) []byte) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			key := KeyOf("src"+name, "cfg", "alpha")
			a := New(Options{Dir: dir})
			a.Put(key, entryFor(t, "f", 3))
			path := a.path(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out := f(t, key, data); out != nil {
				if err := os.WriteFile(path, out, 0o666); err != nil {
					t.Fatal(err)
				}
			}
			b := New(Options{Dir: dir})
			if _, ok := b.Get(key); ok {
				t.Fatal("invalid disk entry served as a hit")
			}
			if b.Metrics().CounterValue("ccache.disk_invalid") != 1 {
				t.Fatal("disk_invalid counter did not move")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("invalid entry not removed")
			}
			if b.Metrics().CounterValue("ccache.misses") != 1 {
				t.Fatal("miss not counted")
			}
		})
	}
	corrupt("truncated", func(_ *testing.T, _ Key, data []byte) []byte { return data[:len(data)/2] })
	corrupt("garbage", func(_ *testing.T, _ Key, _ []byte) []byte { return []byte("{not an envelope") })
	corrupt("checksum", func(_ *testing.T, _ Key, data []byte) []byte {
		data[len(data)/2] ^= 0x01
		return data
	})
	corrupt("schema-bump", func(t *testing.T, key Key, _ []byte) []byte {
		// A checksum-valid envelope written under another schema version
		// must be rejected, so bumping SchemaVersion invalidates stale
		// entries even on a key collision.
		fp := flatOf(t, prog(t, "f", 3))
		return forgeEnvelope(t, entryMeta{
			Schema: "macc-ccache/v0",
			Key:    key.String(),
		}, codec.EncodeProgram(fp))
	})
	corrupt("key-mismatch", func(t *testing.T, _ Key, _ []byte) []byte {
		fp := flatOf(t, prog(t, "f", 3))
		return forgeEnvelope(t, entryMeta{
			Schema: SchemaVersion,
			Key:    KeyOf("someone-else", "cfg", "alpha").String(),
		}, codec.EncodeProgram(fp))
	})
	corrupt("bad-program", func(t *testing.T, key Key, _ []byte) []byte {
		// Envelope intact (valid JSON, matching outer checksum) but the
		// program bytes fail the codec's structural decode: the
		// revalidation gate must turn it into a miss.
		return forgeEnvelope(t, entryMeta{
			Schema: SchemaVersion,
			Key:    key.String(),
		}, []byte("MFP1 junk that is not a flat program"))
	})
	corrupt("unverifiable-program", func(t *testing.T, key Key, _ []byte) []byte {
		// A well-formed image whose registers lie outside the function's
		// pool: it decodes and validates, but must fail verification
		// before a simulator could index its register file with them.
		fp := flatOf(t, prog(t, "f", 3))
		fp.Fns[0].Dst[0] = 40
		return forgeEnvelope(t, entryMeta{
			Schema: SchemaVersion,
			Key:    key.String(),
		}, codec.EncodeProgram(fp))
	})
}

// TestDiskSchemaMigrationGC seeds a cache directory with old-schema files —
// a v1-era layout with no schema marker — and verifies that a new cache GC's
// them at startup, counts them, writes the marker, and serves consistent
// misses afterwards.
func TestDiskSchemaMigrationGC(t *testing.T) {
	dir := t.TempDir()
	// Simulate a v1 directory: sharded JSON text entries, no marker file.
	old := []string{
		filepath.Join(dir, "ab", "abcd0123.json"),
		filepath.Join(dir, "ab", "abcd4567.json"),
		filepath.Join(dir, "cd", "cdef0123.json"),
	}
	for _, p := range old {
		if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(`{"schema":"macc-ccache/v1","rtl":"func f() {}"}`), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	journal := filepath.Join(dir, "journal")
	if err := os.WriteFile(journal, []byte("intent ab/.x.tmp1\n"), 0o666); err != nil {
		t.Fatal(err)
	}

	c := New(Options{Dir: dir})
	if got := c.Metrics().CounterValue("ccache.schema_evicted"); got != int64(len(old)) {
		t.Fatalf("schema_evicted = %d, want %d", got, len(old))
	}
	for _, p := range old {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("stale entry survived migration: %s", p)
		}
	}
	marker, err := os.ReadFile(filepath.Join(dir, "schema"))
	if err != nil || strings.TrimSpace(string(marker)) != SchemaVersion {
		t.Fatalf("schema marker not written: %q err=%v", marker, err)
	}
	// Old keys are misses (and counted as such), never errors.
	if _, ok := c.Get(KeyOf("anything", "cfg", "alpha")); ok {
		t.Fatal("migrated cache produced a hit from nowhere")
	}
	if c.Metrics().CounterValue("ccache.misses") != 1 {
		t.Fatal("miss not counted after migration")
	}
	// The cache still works end to end after migration.
	key := KeyOf("fresh", "cfg", "alpha")
	c.Put(key, entryFor(t, "f", 2))
	d := New(Options{Dir: dir})
	if d.Metrics().CounterValue("ccache.schema_evicted") != 0 {
		t.Fatal("second startup re-evicted a current-schema directory")
	}
	if _, ok := d.Get(key); !ok {
		t.Fatal("current-schema entry lost across restart")
	}
}

func TestSingleflightDedupIsShared(t *testing.T) {
	c := New(Options{})
	key := KeyOf("src", "cfg", "alpha")

	const waiters = 7
	started := make(chan struct{})
	release := make(chan struct{})
	joined := make(chan struct{}, waiters)
	c.onWait = func() { joined <- struct{}{} }

	computes := 0
	var wg sync.WaitGroup
	results := make([]Entry, waiters+1)
	leaderErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		e, hit, err := c.GetOrComputeCtx(context.Background(), key, func(context.Context) (Entry, error) {
			computes++
			close(started)
			<-release
			return entryFor(t, "f", 2), nil
		})
		if hit {
			err = fmt.Errorf("leader reported hit")
		}
		leaderErr <- err
		results[0] = e
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, hit, err := c.GetOrComputeCtx(context.Background(), key, func(context.Context) (Entry, error) {
				t.Error("waiter computed")
				return Entry{}, nil
			})
			if err != nil || !hit {
				t.Errorf("waiter %d: hit=%v err=%v", i, hit, err)
			}
			results[i+1] = e
		}(i)
	}
	// Wait until every waiter has actually joined the flight, then let the
	// leader finish: the dedup count is deterministic.
	for i := 0; i < waiters; i++ {
		<-joined
	}
	close(release)
	wg.Wait()
	if err := <-leaderErr; err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times", computes)
	}
	if got := c.Metrics().CounterValue("ccache.dedup_waiters"); got != waiters {
		t.Fatalf("dedup_waiters = %d, want %d", got, waiters)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Flat != results[0].Flat {
			t.Fatalf("waiter %d got a different flat image", i)
		}
	}
}

func TestGetOrComputeErrorSharedNotStored(t *testing.T) {
	c := New(Options{Dir: t.TempDir()})
	key := KeyOf("bad", "cfg", "alpha")
	wantErr := fmt.Errorf("boom")
	_, hit, err := c.GetOrComputeCtx(context.Background(), key, func(context.Context) (Entry, error) { return Entry{}, wantErr })
	if hit || err != wantErr {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("errored compute was cached")
	}
}

func TestUncacheableReturnedButNotStored(t *testing.T) {
	c := New(Options{Dir: t.TempDir()})
	key := KeyOf("deg", "cfg", "alpha")
	e := entryFor(t, "f", 1)
	e.Uncacheable = true
	got, hit, err := c.GetOrComputeCtx(context.Background(), key, func(context.Context) (Entry, error) { return e, nil })
	if err != nil || hit || got.Flat == nil {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("uncacheable entry was stored")
	}
	if entries, _ := filepath.Glob(filepath.Join(c.dir, "*", "*.bin")); len(entries) != 0 {
		t.Fatalf("uncacheable entry written to disk: %v", entries)
	}
}

// TestConcurrentHitMissEvict hammers a tiny-budget, disk-backed cache from
// many goroutines mixing Get, Put, and GetOrComputeCtx — run under -race in CI.
func TestConcurrentHitMissEvict(t *testing.T) {
	c := New(Options{MemBudget: 4096, Dir: t.TempDir()})
	keys := make([]Key, 8)
	progs := make([]*rtl.FlatProgram, len(keys))
	small := make([]*rtl.FlatProgram, len(keys))
	for i := range keys {
		keys[i] = KeyOf(fmt.Sprintf("src%d", i), "cfg", "alpha")
		progs[i] = flatOf(t, prog(t, fmt.Sprintf("f%d", i), 10+i))
		small[i] = flatOf(t, prog(t, fmt.Sprintf("f%d", i), 5))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ki := (g + i) % len(keys)
				k := keys[ki]
				switch i % 3 {
				case 0:
					c.Get(k)
				case 1:
					e, _, err := c.GetOrComputeCtx(context.Background(), k, func(context.Context) (Entry, error) {
						return Entry{Flat: progs[ki]}, nil
					})
					if err != nil || e.Flat == nil {
						t.Errorf("GetOrComputeCtx: %v", err)
						return
					}
					if _, err := e.Materialize(); err != nil {
						t.Errorf("Materialize: %v", err)
						return
					}
				case 2:
					c.Put(k, Entry{Flat: small[ki]})
				}
			}
		}(g)
	}
	wg.Wait()
	if err := c.checkAccounting(); err != nil {
		t.Fatal(err)
	}
}

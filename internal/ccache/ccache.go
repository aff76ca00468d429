// Package ccache is a two-tier content-addressed compilation cache. The
// paper eliminates redundant memory accesses inside a loop; this package
// applies the same idea one level up and eliminates redundant compilations:
// a compile keyed by the SHA-256 of (source text, canonical configuration
// fingerprint, machine fingerprint, cache schema version) is done at most
// once, then served from memory or disk.
//
// The cached payload is the flat IR (rtl.FlatProgram): an immutable,
// index-based image of the optimized program. The memory tier is an LRU over
// these images with a byte budget costed by the actual encoded entry size;
// hits hand out the shared image directly (no clone-on-hit copies — callers
// materialize a private pointer graph with Entry.Materialize only when they
// need one). The optional disk tier stores the binary codec envelope
// (rtl/codec framed with a JSON metadata header and an FNV-64a trailer) and
// revalidates on every hit by checksum + structural decode — no text
// reparse. A truncated, corrupt, stale, or mismatched entry is a miss, never
// an error; entries written by an older schema are garbage-collected at
// startup (see migrate).
//
// Concurrent identical compiles are deduplicated singleflight-style:
// GetOrComputeCtx runs the compute function once per key, and every concurrent
// caller shares the result. Callers must treat a returned Entry as
// immutable.
package ccache

import (
	"bufio"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"macc/internal/core"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
)

// SchemaVersion names the cache layout. Bumping it invalidates every
// existing entry three times over: it is hashed into the key (so new lookups
// miss old files), checked against the disk envelope (so a file from another
// schema is rejected even on a key collision), and compared with the
// directory's schema marker at startup (so stale files are GC'd rather than
// left to rot). v2 switched the disk payload from printed text to the binary
// flat-IR codec.
const SchemaVersion = "macc-ccache/v2"

// Key is the 32-byte content address of one compilation.
type Key [sha256.Size]byte

// String returns the key in hex, as used for disk file names.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String (as used in the peer
// protocol's URLs).
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("bad cache key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// KeyOf derives the content address of a compilation from the source text,
// the canonical configuration fingerprint, and the machine fingerprint.
// Fields are length-prefixed ("<len>:<field>") so no two distinct triples
// collide by concatenation. The hashed message is built in one buffer.
func KeyOf(source, configFP, machineFP string) Key {
	fields := [...]string{SchemaVersion, source, configFP, machineFP}
	n := 0
	for _, s := range fields {
		n += len(s) + 21 // a decimal int64 and the colon
	}
	msg := make([]byte, 0, n)
	for _, s := range fields {
		msg = strconv.AppendInt(msg, int64(len(s)), 10)
		msg = append(append(msg, ':'), s...)
	}
	return sha256.Sum256(msg)
}

// Entry is one cached compilation: the optimized program in flat form plus
// the side records a *macc.Program carries. Entries stored in the cache are
// shared and must not be mutated; Materialize hands out a private pointer
// graph, CloneReports / CloneUnrolled private copies of the side records.
type Entry struct {
	// Flat is the optimized program's flat image (immutable once cached).
	Flat *rtl.FlatProgram
	// Machine is the target name, recorded in the disk envelope.
	Machine string
	// Reports are the coalescer's per-loop reports.
	Reports []core.LoopReport
	// Unrolled maps function names to applied unroll factors.
	Unrolled map[string]int
	// Uncacheable marks a result that must be returned to concurrent
	// callers but never stored (e.g. a compile that degraded).
	Uncacheable bool

	// enc caches the encoded envelope (the exact bytes on disk and on the
	// peer wire). Put and the decode paths fill it; it is the entry's true
	// byte cost against the memory budget.
	enc []byte
}

// Materialize builds a private pointer-graph program from the cached flat
// image. The result shares no mutable state with the entry, so the caller
// may optimize or mutate it freely.
func (e Entry) Materialize() (*rtl.Program, error) {
	if e.Flat == nil {
		return nil, errors.New("ccache: entry has no program")
	}
	return e.Flat.Unflatten(), nil
}

// CloneReports returns a private copy of the report slice.
func (e Entry) CloneReports() []core.LoopReport {
	if e.Reports == nil {
		return nil
	}
	return append([]core.LoopReport(nil), e.Reports...)
}

// CloneUnrolled returns a private copy of the unroll-factor map.
func (e Entry) CloneUnrolled() map[string]int {
	m := make(map[string]int, len(e.Unrolled))
	for k, v := range e.Unrolled {
		m[k] = v
	}
	return m
}

// entryOverhead approximates the in-memory bookkeeping cost (LRU element,
// map slot, struct headers) charged on top of the encoded payload.
const entryOverhead = 256

// size is the byte cost charged against the memory budget: the actual
// encoded entry size plus fixed overhead. Every entry that reaches the
// memory tier carries its encoding: Put encodes first, and disk and peer
// hits come from DecodeEntry.
func (e Entry) size() int64 { return int64(len(e.enc)) + entryOverhead }

// Options configures a Cache.
type Options struct {
	// MemBudget bounds the memory tier in bytes (of encoded-entry cost).
	// Zero selects DefaultMemBudget; negative disables the memory tier.
	MemBudget int64
	// Dir, when non-empty, enables the disk tier rooted there. The
	// directory is created on first write.
	Dir string
	// Metrics, when non-nil, receives the cache's counters and gauges;
	// nil gets a private registry (readable via Metrics()).
	Metrics *telemetry.Registry
	// Fallback, when non-nil, is consulted after both local tiers miss —
	// the compile farm wires a validated peer-cache lookup in here. A
	// fallback hit is promoted into both local tiers. The fallback is
	// never consulted by GetLocal, so a replica answering peer probes can
	// not recurse into its own peers. The ctx carries the requesting
	// trace's span context so the peer lookup's spans join the trace. A
	// hit must come from DecodeEntry, which keeps the encoding the memory
	// tier charges for.
	Fallback func(context.Context, Key) (Entry, bool)
	// Tracer, when non-nil, records one tier-decision span per ctx-aware
	// lookup (mem hit, disk hit + decode revalidation, peer fallback,
	// miss), a wait span per singleflight waiter, and a compute span
	// around each singleflight leader's compile.
	Tracer *dtrace.Tracer
	// DiskFault, when non-nil, is invoked before each disk-tier write
	// step ("create", "write", "rename") and fails that step when it
	// returns an error. Returning ErrSimulatedCrash models a writer
	// killed mid-step: the half-written temp file is abandoned in place,
	// exactly as kill -9 would leave it, for the recovery scan to find.
	// This is a fault-injection hook (internal/faultinject); production
	// caches leave it nil.
	DiskFault func(op string) error
}

// ErrSimulatedCrash, returned by an Options.DiskFault hook, makes the disk
// tier abandon the current write as a kill -9 would: no cleanup, no rename,
// the torn temp file left for crash recovery to collect.
var ErrSimulatedCrash = errors.New("ccache: simulated crash during disk write")

// DefaultMemBudget is the memory tier's default byte budget.
const DefaultMemBudget = 64 << 20

// Cache is a two-tier content-addressed compile cache with singleflight
// deduplication. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	lru      *list.List // front = most recently used
	byKey    map[Key]*list.Element
	bytes    int64
	budget   int64
	dir      string
	reg      *telemetry.Registry
	fallback func(context.Context, Key) (Entry, bool)
	fault    func(op string) error
	tracer   *dtrace.Tracer
	flights  map[Key]*flight
	fmu      sync.Mutex
	jmu      sync.Mutex
	journal  *os.File
	// onWait, when non-nil, is invoked whenever a caller joins an
	// existing flight (test hook for deterministic dedup assertions).
	onWait func()
}

type lruEntry struct {
	key Key
	e   Entry
}

type flight struct {
	done chan struct{}
	e    Entry
	err  error
}

// New builds a cache from opts.
func New(opts Options) *Cache {
	budget := opts.MemBudget
	if budget == 0 {
		budget = DefaultMemBudget
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Cache{
		lru:      list.New(),
		byKey:    make(map[Key]*list.Element),
		budget:   budget,
		dir:      opts.Dir,
		reg:      reg,
		fallback: opts.Fallback,
		fault:    opts.DiskFault,
		tracer:   opts.Tracer,
		flights:  make(map[Key]*flight),
	}
	if c.dir != "" {
		c.migrate()
		c.recover()
	}
	return c
}

// Metrics returns the registry the cache publishes into: counters
// ccache.mem_hits, ccache.disk_hits, ccache.misses, ccache.evictions,
// ccache.dedup_waiters, ccache.stores, ccache.disk_invalid,
// ccache.disk_errors, ccache.schema_evicted, and gauges ccache.entries,
// ccache.bytes.
func (c *Cache) Metrics() *telemetry.Registry { return c.reg }

// Bytes returns the memory tier's current byte cost.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Get looks the key up in the memory tier, the disk tier, and finally the
// configured Fallback (the farm's peer lookup). A disk or fallback hit is
// revalidated and promoted into the faster tiers. The second return is
// false on a miss (including every form of invalid disk entry).
func (c *Cache) Get(key Key) (Entry, bool) {
	return c.GetCtx(context.Background(), key)
}

// GetCtx is Get with trace propagation: one cache span records which tier
// answered (mem, disk, peer, or miss), and the peer fallback runs under the
// span's context so its lookup attempts join the request trace.
func (c *Cache) GetCtx(ctx context.Context, key Key) (Entry, bool) {
	sp := c.tracer.StartSpan(dtrace.FromContext(ctx), "ccache.get", dtrace.KindCache)
	e, tier, ok := c.getLocal(key)
	if !ok && c.fallback != nil {
		fctx := ctx
		if sp.Context().Valid() {
			fctx = dtrace.ContextWith(ctx, sp.Context())
		}
		if fe, fok := c.fallback(fctx, key); fok && fe.Flat != nil {
			c.reg.Counter("ccache.peer_hits").Add(1)
			c.insertMem(key, fe)
			if c.dir != "" {
				if err := c.storeDisk(key, fe); err != nil {
					c.reg.Counter("ccache.disk_errors").Add(1)
				}
			}
			e, tier, ok = fe, "peer", true
		}
	}
	if !ok {
		c.reg.Counter("ccache.misses").Add(1)
		tier = "miss"
	}
	sp.SetAttr("tier", tier)
	sp.SetAttr("key", key.String()[:12])
	sp.End()
	return e, ok
}

// GetLocal looks the key up in the local tiers only (memory, then disk) —
// never the peer fallback. The farm's peer-protocol handler answers probes
// from here, so a farm of replicas can not turn one miss into a lookup
// cycle. A local miss is not counted in ccache.misses (the probing peer
// accounts for its own miss).
func (c *Cache) GetLocal(key Key) (Entry, bool) {
	e, _, ok := c.getLocal(key)
	return e, ok
}

// getLocal is GetLocal plus the answering tier's name: "mem" for a memory
// hit, "disk" for a disk hit (which implies a successful checksum +
// structural decode revalidation), "" on a miss.
func (c *Cache) getLocal(key Key) (Entry, string, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*lruEntry).e
		c.mu.Unlock()
		c.reg.Counter("ccache.mem_hits").Add(1)
		return e, "mem", true
	}
	c.mu.Unlock()

	if c.dir != "" {
		if e, ok := c.loadDisk(key); ok {
			c.reg.Counter("ccache.disk_hits").Add(1)
			c.insertMem(key, e)
			return e, "disk", true
		}
	}
	return Entry{}, "", false
}

// Put stores the entry under key in both tiers. The entry becomes cache
// property: callers must not mutate it afterwards. Uncacheable entries are
// ignored.
func (c *Cache) Put(key Key, e Entry) {
	if e.Uncacheable || e.Flat == nil {
		return
	}
	if e.enc == nil {
		data, err := EncodeEntry(key, e)
		if err != nil {
			return
		}
		e.enc = data
	}
	c.reg.Counter("ccache.stores").Add(1)
	c.insertMem(key, e)
	if c.dir != "" {
		if err := c.storeDisk(key, e); err != nil {
			c.reg.Counter("ccache.disk_errors").Add(1)
		}
	}
}

// GetOrComputeCtx returns the cached entry for key, or runs compute exactly
// once — concurrently requested identical keys share the single in-flight
// computation (and each waiter counts as ccache.dedup_waiters). hit reports
// whether the result came from the cache or a shared flight rather than
// this caller's own compute. A compute error is shared with every waiter
// and nothing is stored.
//
// The tier lookup records its cache span, a waiter joining an existing
// flight records a wait span covering the time spent parked behind the
// leader, and the leader's compute runs under a compute span whose context
// reaches the pipeline (so per-pass spans nest beneath it).
func (c *Cache) GetOrComputeCtx(ctx context.Context, key Key, compute func(context.Context) (Entry, error)) (e Entry, hit bool, err error) {
	if e, ok := c.GetCtx(ctx, key); ok {
		return e, true, nil
	}
	c.fmu.Lock()
	if f, ok := c.flights[key]; ok {
		c.fmu.Unlock()
		c.reg.Counter("ccache.dedup_waiters").Add(1)
		sp := c.tracer.StartSpan(dtrace.FromContext(ctx), "ccache.wait", dtrace.KindWait)
		sp.SetAttr("key", key.String()[:12])
		if c.onWait != nil {
			c.onWait()
		}
		<-f.done
		if f.err != nil {
			sp.SetErr(f.err.Error())
		}
		sp.End()
		return f.e, f.err == nil, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.fmu.Unlock()

	sp := c.tracer.StartSpan(dtrace.FromContext(ctx), "compile", dtrace.KindCompute)
	sp.SetAttr("key", key.String()[:12])
	cctx := ctx
	if sp.Context().Valid() {
		cctx = dtrace.ContextWith(ctx, sp.Context())
	}
	f.e, f.err = compute(cctx)
	if f.err != nil {
		sp.SetErr(f.err.Error())
	}
	sp.End()
	if f.err == nil {
		c.Put(key, f.e)
	}
	c.fmu.Lock()
	delete(c.flights, key)
	c.fmu.Unlock()
	close(f.done)
	return f.e, false, f.err
}

// insertMem adds (or refreshes) a memory-tier entry and evicts from the LRU
// tail until the budget holds. Disk-tier files are never evicted.
func (c *Cache) insertMem(key Key, e Entry) {
	if c.budget < 0 {
		return
	}
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		old := el.Value.(*lruEntry)
		c.bytes += e.size() - old.e.size()
		old.e = e
		c.lru.MoveToFront(el)
	} else {
		c.byKey[key] = c.lru.PushFront(&lruEntry{key: key, e: e})
		c.bytes += e.size()
	}
	var evicted int64
	for c.bytes > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		le := back.Value.(*lruEntry)
		c.lru.Remove(back)
		delete(c.byKey, le.key)
		c.bytes -= le.e.size()
		evicted++
	}
	c.reg.Gauge("ccache.entries").Set(float64(len(c.byKey)))
	c.reg.Gauge("ccache.bytes").Set(float64(c.bytes))
	c.mu.Unlock()
	if evicted > 0 {
		c.reg.Counter("ccache.evictions").Add(evicted)
	}
}

// checkAccounting verifies the LRU byte-accounting invariant: c.bytes must
// equal the sum of the live entries' sizes. Test hook.
func (c *Cache) checkAccounting() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*lruEntry).e.size()
	}
	if sum != c.bytes {
		return fmt.Errorf("accounting drift: entries sum to %d, c.bytes is %d", sum, c.bytes)
	}
	if c.lru.Len() != len(c.byKey) {
		return fmt.Errorf("index drift: lru has %d elements, byKey has %d", c.lru.Len(), len(c.byKey))
	}
	return nil
}

// entryMeta is the JSON metadata header inside the binary envelope: the
// side records that ride along with the codec-encoded program.
type entryMeta struct {
	Schema   string            `json:"schema"`
	Key      string            `json:"key"`
	Machine  string            `json:"machine,omitempty"`
	Unrolled map[string]int    `json:"unrolled,omitempty"`
	Reports  []core.LoopReport `json:"reports,omitempty"`
}

// envelopeMagic opens every disk/peer entry: "Macc Cache Entry v2".
var envelopeMagic = [4]byte{'M', 'C', 'E', '2'}

// path shards entries by the first key byte to keep directories small.
func (c *Cache) path(key Key) string {
	hexKey := key.String()
	return filepath.Join(c.dir, hexKey[:2], hexKey+".bin")
}

// EncodeEntry renders the entry as the binary disk/wire envelope for key:
// magic, length-prefixed JSON metadata, length-prefixed codec program
// bytes, FNV-64a trailer. The same bytes are written to the disk tier and
// served to farm peers, so every consumer revalidates the one format with
// DecodeEntry. If the entry already carries its encoding (it came from Put
// or a decode), those exact bytes are returned.
func EncodeEntry(key Key, e Entry) ([]byte, error) {
	if e.enc != nil {
		return e.enc, nil
	}
	if e.Flat == nil {
		return nil, errors.New("ccache: entry has no program")
	}
	meta, err := json.Marshal(entryMeta{
		Schema:   SchemaVersion,
		Key:      key.String(),
		Machine:  e.Machine,
		Unrolled: e.Unrolled,
		Reports:  e.Reports,
	})
	if err != nil {
		return nil, err
	}
	prog := codec.EncodeProgram(e.Flat)
	buf := make([]byte, 0, len(envelopeMagic)+len(meta)+len(prog)+24)
	buf = append(buf, envelopeMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(meta)))
	buf = append(buf, meta...)
	buf = binary.AppendUvarint(buf, uint64(len(prog)))
	buf = append(buf, prog...)
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64()), nil
}

// DecodeEntry parses and revalidates one envelope against the key it was
// requested under: the trailer checksum must cover the bytes, schema and
// key must match, and the program must pass the codec's structural decode,
// the flat IR's index validation and the verifier. Any violation is an
// error — the caller treats it as a miss. This is the verification gate that
// makes a corrupt or stale peer answer harmless. No text reparse happens here: a
// disk or peer hit decodes straight into the flat form.
func DecodeEntry(key Key, data []byte) (Entry, error) {
	if len(data) < len(envelopeMagic)+2+8 {
		return Entry{}, fmt.Errorf("envelope: short buffer (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(trailer); got != want {
		return Entry{}, errors.New("envelope: checksum mismatch")
	}
	if string(body[:4]) != string(envelopeMagic[:]) {
		return Entry{}, fmt.Errorf("envelope: bad magic %q", body[:4])
	}
	rest := body[4:]
	metaBytes, rest, err := lengthPrefixed(rest, "metadata")
	if err != nil {
		return Entry{}, err
	}
	var meta entryMeta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return Entry{}, fmt.Errorf("envelope metadata: %w", err)
	}
	if meta.Schema != SchemaVersion {
		return Entry{}, fmt.Errorf("schema %q, want %q", meta.Schema, SchemaVersion)
	}
	if meta.Key != key.String() {
		return Entry{}, fmt.Errorf("key mismatch: envelope %s", meta.Key)
	}
	progBytes, rest, err := lengthPrefixed(rest, "program")
	if err != nil {
		return Entry{}, err
	}
	if len(rest) != 0 {
		return Entry{}, fmt.Errorf("envelope: %d trailing bytes", len(rest))
	}
	fp, err := codec.DecodeProgram(progBytes)
	if err != nil {
		return Entry{}, fmt.Errorf("program: %w", err)
	}
	return Entry{
		Flat:     fp,
		Machine:  meta.Machine,
		Unrolled: meta.Unrolled,
		Reports:  meta.Reports,
		enc:      data,
	}, nil
}

// lengthPrefixed splits one uvarint-length-prefixed field off buf.
func lengthPrefixed(buf []byte, what string) (field, rest []byte, err error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || l > uint64(len(buf)-n) {
		return nil, nil, fmt.Errorf("envelope: truncated %s field", what)
	}
	return buf[n : n+int(l)], buf[n+int(l):], nil
}

// EncodeLocal encodes the locally cached entry for key (for the farm peer
// handler). The bool is false when the key is not in a local tier.
func (c *Cache) EncodeLocal(key Key) ([]byte, bool) {
	e, ok := c.GetLocal(key)
	if !ok {
		return nil, false
	}
	data, err := EncodeEntry(key, e)
	if err != nil {
		return nil, false
	}
	return data, true
}

// step runs one injected-fault checkpoint of the disk write path.
func (c *Cache) step(op string) error {
	if c.fault == nil {
		return nil
	}
	return c.fault(op)
}

// storeDisk writes the entry via a write-ahead journal entry plus temp file
// + rename, so a reader never observes a half-written envelope and a writer
// killed at any point leaves only a journaled temp file for the next
// startup's recovery scan to collect.
func (c *Cache) storeDisk(key Key, e Entry) error {
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
		return err
	}
	data, err := EncodeEntry(key, e)
	if err != nil {
		return err
	}
	if err := c.step("create"); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+filepath.Base(p)+".tmp*")
	if err != nil {
		return err
	}
	// Journal the intent before the first payload byte: whatever happens
	// from here on, recovery knows this temp file is not a real entry.
	c.journalIntent(tmp.Name())
	if err := c.step("write"); err != nil {
		if errors.Is(err, ErrSimulatedCrash) {
			// Model the writer dying mid-WriteFile: half the payload
			// lands, nothing is cleaned up.
			tmp.Write(data[:len(data)/2])
			tmp.Close()
			return err
		}
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := c.step("rename"); err != nil {
		if !errors.Is(err, ErrSimulatedCrash) {
			os.Remove(tmp.Name())
		}
		return err
	}
	return os.Rename(tmp.Name(), p)
}

// journalIntent appends one line naming a temp file about to be written.
// A successful rename removes the temp file, so at recovery time any
// journaled name that still exists is a torn write. Journal append errors
// are deliberately non-fatal (the sweep in recover backstops them).
func (c *Cache) journalIntent(tmpPath string) {
	rel, err := filepath.Rel(c.dir, tmpPath)
	if err != nil {
		return
	}
	c.jmu.Lock()
	defer c.jmu.Unlock()
	if c.journal == nil {
		f, err := os.OpenFile(c.journalPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
		if err != nil {
			return
		}
		c.journal = f
	}
	fmt.Fprintf(c.journal, "intent %s\n", rel)
}

func (c *Cache) journalPath() string { return filepath.Join(c.dir, "journal") }
func (c *Cache) markerPath() string  { return filepath.Join(c.dir, "schema") }

// migrate reconciles the disk directory with the current schema at startup.
// The directory carries a schema marker file; when it is absent (a v1-era
// directory, which predates markers) or names another schema, every entry
// file is stale — new keys hash the schema so they could never hit, and
// leaving them would leak disk forever. They are GC'd (counted as
// ccache.schema_evicted) and the marker is rewritten. The journal and the
// marker itself survive; recover still runs afterwards for torn writes.
func (c *Cache) migrate() {
	current, err := os.ReadFile(c.markerPath())
	if err == nil && strings.TrimSpace(string(current)) == SchemaVersion {
		return
	}
	var evicted int64
	filepath.WalkDir(c.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if p == c.journalPath() || p == c.markerPath() {
			return nil
		}
		// Torn temp files are crash-recovery's to collect (and count), not
		// the schema GC's.
		if strings.Contains(d.Name(), ".tmp") {
			return nil
		}
		if os.Remove(p) == nil {
			evicted++
		}
		return nil
	})
	if evicted > 0 {
		c.reg.Counter("ccache.schema_evicted").Add(evicted)
	}
	if os.MkdirAll(c.dir, 0o777) == nil {
		os.WriteFile(c.markerPath(), []byte(SchemaVersion+"\n"), 0o666)
	}
}

// recover runs the startup crash-recovery scan: every temp file named by a
// journal intent that still exists is a torn write from a killed writer and
// is removed (ccache.recovered_torn); a belt-and-braces sweep also collects
// unjournaled *.tmp* strays (ccache.recovered_tmp), covering journal-append
// failures. The journal is then truncated. Final-path entries need no scan:
// loadDisk revalidates every read and deletes invalid files on sight.
func (c *Cache) recover() {
	if f, err := os.Open(c.journalPath()); err == nil {
		var torn int64
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			name, ok := strings.CutPrefix(sc.Text(), "intent ")
			if !ok {
				continue
			}
			name = filepath.Clean(name)
			if name == "" || name == "." || filepath.IsAbs(name) ||
				strings.HasPrefix(name, "..") {
				continue // a corrupt journal must not delete outside dir
			}
			p := filepath.Join(c.dir, name)
			if _, err := os.Lstat(p); err == nil {
				os.Remove(p)
				torn++
			}
		}
		f.Close()
		if torn > 0 {
			c.reg.Counter("ccache.recovered_torn").Add(torn)
		}
		os.Remove(c.journalPath())
	}
	var strays int64
	filepath.WalkDir(c.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.Contains(d.Name(), ".tmp") {
			os.Remove(p)
			strays++
		}
		return nil
	})
	if strays > 0 {
		c.reg.Counter("ccache.recovered_tmp").Add(strays)
	}
}

// loadDisk reads and revalidates one disk entry. Every failure mode —
// unreadable file, bad checksum, malformed envelope, schema or key
// mismatch, a program that fails structural decode — is a miss; invalid
// files are counted and removed so they are not re-tried forever.
func (c *Cache) loadDisk(key Key) (Entry, bool) {
	p := c.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		return Entry{}, false
	}
	e, err := DecodeEntry(key, data)
	if err != nil {
		c.reg.Counter("ccache.disk_invalid").Add(1)
		os.Remove(p)
		return Entry{}, false
	}
	return e, true
}

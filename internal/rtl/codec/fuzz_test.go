package codec_test

// FuzzFlatRoundTrip pins the two safety properties the compile cache's
// binary disk tier depends on:
//
//  1. Losslessness: for any rtlgen-generated program, Flatten → encode →
//     decode → Unflatten → print is byte-identical to printing the
//     original, and re-encoding the decoded image reproduces the exact
//     bytes.
//  2. Robustness: DecodeProgram on corrupted, truncated, or arbitrary
//     buffers returns an error (or, for full-checksum-valid mutations, a
//     program that passed Verify) — it never panics, and a decoded image
//     unflattens without panicking.
//  3. Pass safety, in two legs over every decoded image. The clean sweep
//     (opt.FlatClean) runs directly on every image the codec accepts and
//     must leave it passing Verify. The production pass pipeline
//     (macc.OptimizeFlat, coalescing loads and stores) runs in strict mode
//     on every image the codec accepts, so a pass panic, pass error, or
//     verifier break fails the fuzz instead of being rolled back, and
//     afterwards the program must still pass Verify. No pass may ever
//     produce unparallel arrays, broken block ranges, dangling call
//     indices, or malformed blocks, whatever image the codec hands it.

import (
	"bytes"
	"testing"

	"macc"
	"macc/internal/opt"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
	"macc/internal/rtlgen"
)

// runFlatClean applies one flat pass directly (the clean sweep, which
// exercises the in-place rewrite, kill-marker compaction, and block-removal
// primitives) to every function of a decoded image and asserts that the
// image still passes Verify.
func runFlatClean(t *testing.T, fp *rtl.FlatProgram, what string) {
	t.Helper()
	for fi := range fp.Fns {
		opt.FlatClean(fp, fi)
	}
	if err := fp.Verify(); err != nil {
		t.Fatalf("flat clean over %s broke the image: %v", what, err)
	}
}

// runPipeline optimizes a decoded image in place with the production pass
// pipeline in strict mode and asserts that the result still passes Verify.
// The decoder ran Verify, so OptimizeFlat must accept every decoded image.
func runPipeline(t *testing.T, fp *rtl.FlatProgram, what string) {
	t.Helper()
	cfg := macc.DefaultConfig()
	cfg.Strict = true
	p, err := macc.OptimizeFlat(fp, cfg)
	if err != nil {
		t.Fatalf("pipeline failed over %s: %v", what, err)
	}
	if p.Diagnostics.Degraded() {
		t.Fatalf("pipeline over %s degraded: %v", what, p.Diagnostics)
	}
	if err := fp.Verify(); err != nil {
		t.Fatalf("pipeline over %s broke the image: %v", what, err)
	}
}

// unflattens materializes a decoded image and fails the fuzz if that
// panics.
func unflattens(t *testing.T, fp *rtl.FlatProgram) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("a decoded image does not unflatten: %v", r)
		}
	}()
	fp.Unflatten()
}

// runPassLegs runs both pass-safety legs over buf, each on its own decode.
func runPassLegs(t *testing.T, buf []byte, first *rtl.FlatProgram, what string) {
	t.Helper()
	again, err := codec.DecodeProgram(buf)
	if err != nil {
		t.Fatalf("second decode of %s: %v", what, err)
	}
	runFlatClean(t, first, what)
	runPipeline(t, again, what)
}

func FuzzFlatRoundTrip(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, []byte{})
	}
	f.Add(int64(3), []byte{0x00, 0x13, 0x37})
	f.Add(int64(-9), []byte("MFP1 but not really"))
	f.Fuzz(func(t *testing.T, seed int64, corrupt []byte) {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Skip("generator rejected seed")
		}
		p := rtl.NewProgram(fn)
		want := p.String()

		fp, err := rtl.Flatten(p)
		if err != nil {
			t.Fatalf("flatten: %v", err)
		}
		enc := codec.EncodeProgram(fp)
		dec, err := codec.DecodeProgram(enc)
		if err != nil {
			t.Fatalf("decode of valid encoding: %v", err)
		}
		back := dec.Unflatten()
		if got := back.String(); got != want {
			t.Fatalf("round trip not byte-identical:\n--- got ---\n%s--- want ---\n%s", got, want)
		}
		if re := codec.EncodeProgram(dec); !bytes.Equal(re, enc) {
			t.Fatal("re-encode differs from original encoding")
		}
		runPassLegs(t, enc, dec, "valid decode")

		// Truncations of a valid encoding must error, never panic.
		if len(corrupt) > 0 {
			cut := int(corrupt[0]) % len(enc)
			if _, err := codec.DecodeProgram(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded successfully", cut, len(enc))
			}
		}

		// Arbitrary mutations and raw junk: decode must not panic, and
		// anything it does accept must be safe to materialize and optimize.
		mut := append([]byte(nil), enc...)
		for i, b := range corrupt {
			mut[i%len(mut)] ^= b
		}
		for _, buf := range [][]byte{mut, corrupt} {
			if got, err := codec.DecodeProgram(buf); err == nil {
				unflattens(t, got)
				runPassLegs(t, buf, got, "accepted mutation")
			}
		}
	})
}

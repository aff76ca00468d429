package codec_test

import (
	"bytes"
	"errors"
	"testing"

	"macc/internal/rtl"
	"macc/internal/rtl/codec"
	"macc/internal/rtlgen"
)

const fixture = `global tab @4096 size 16 init deadbeef
global bss @8192 size 64
func f(r0, r1) frame 24 @r7 {
entry:
	r2 = M.4u[r0+8]
	r3 = r2 + 17
	if r3 goto body else exit
body:
	M.4[r1-4] = r3
	r4 = extract.2s r2 @1
	r5 = insert.1 r2 <- r3 @2
	r6 = g(r4, 3)
	jump exit
exit:
	ret r3
}
func g(r0, r1) {
entry:
	r2 = r0 * r1
	ret r2
}
`

func flatFixture(t *testing.T) (*rtl.FlatProgram, string) {
	t.Helper()
	p, err := rtl.ParseProgram(fixture)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fp, err := rtl.Flatten(p)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	return fp, p.String()
}

func TestCodecRoundTripFixture(t *testing.T) {
	fp, want := flatFixture(t)
	enc := codec.EncodeProgram(fp)
	dec, err := codec.DecodeProgram(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	back := dec.Unflatten()
	if got := back.String(); got != want {
		t.Fatalf("codec round trip not lossless:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Encoding is deterministic and canonical: re-encoding the decoded
	// image reproduces the exact bytes.
	if re := codec.EncodeProgram(dec); !bytes.Equal(re, enc) {
		t.Fatal("re-encode of decoded program differs from original encoding")
	}
}

func TestCodecRoundTripEmptyAndGlobalsOnly(t *testing.T) {
	for name, src := range map[string]string{
		"empty":        "",
		"globals-only": "global g @0 size 8\n",
		"no-frame":     "func f() {\nentry:\n\tret\n}\n",
	} {
		t.Run(name, func(t *testing.T) {
			p, err := rtl.ParseProgram(src)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := rtl.Flatten(p)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := codec.DecodeProgram(codec.EncodeProgram(fp))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			back := dec.Unflatten()
			if got := back.String(); got != p.String() {
				t.Fatalf("round trip differs: %q vs %q", got, p.String())
			}
		})
	}
}

func TestCodecRoundTripCorpus(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		fn, err := rtlgen.Generate(seed, rtlgen.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p := rtl.NewProgram(fn)
		fp, err := rtl.Flatten(p)
		if err != nil {
			t.Fatalf("seed %d: flatten: %v", seed, err)
		}
		dec, err := codec.DecodeProgram(codec.EncodeProgram(fp))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		back := dec.Unflatten()
		if got, want := back.String(), p.String(); got != want {
			t.Fatalf("seed %d: round trip differs:\n%s\nvs\n%s", seed, got, want)
		}
	}
}

// TestCodecEveryTruncationErrors decodes every strict prefix of a valid
// encoding: all must error (the checksum trailer guards them) and none may
// panic.
func TestCodecEveryTruncationErrors(t *testing.T) {
	fp, _ := flatFixture(t)
	enc := codec.EncodeProgram(fp)
	for i := 0; i < len(enc); i++ {
		if _, err := codec.DecodeProgram(enc[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", i, len(enc))
		}
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	fp, _ := flatFixture(t)
	enc := codec.EncodeProgram(fp)
	cases := map[string]func([]byte) []byte{
		"bad-magic": func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad-version": func(b []byte) []byte {
			b[4] = 0x7F // version 127
			return b
		},
		"flipped-body-byte": func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"flipped-trailer":   func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"truncated-half":    func(b []byte) []byte { return b[:len(b)/2] },
		"empty":             func(b []byte) []byte { return nil },
		"garbage":           func(b []byte) []byte { return []byte("not a flat program at all") },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			buf := corrupt(append([]byte(nil), enc...))
			if _, err := codec.DecodeProgram(buf); err == nil {
				t.Fatal("corrupt buffer decoded successfully")
			}
		})
	}
}

// TestCodecRejectsUnverifiableImage decodes an image whose every index is
// in range but which names registers outside its function's pool: the
// decoder must reject it, because the simulator indexes its register file
// with them.
func TestCodecRejectsUnverifiableImage(t *testing.T) {
	p, err := rtl.ParseProgram("func f(r0) {\nentry:\n\tr1 = r0 + 1\n\tret r1\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := rtl.Flatten(p)
	if err != nil {
		t.Fatal(err)
	}
	f := &fp.Fns[0]
	f.Dst[0] = 40
	f.A[1] = rtl.R(40)
	if _, err := codec.DecodeProgram(codec.EncodeProgram(fp)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("decode = %v, want ErrCorrupt", err)
	}
}

func BenchmarkEncodeProgram(b *testing.B) {
	p, err := rtl.ParseProgram(fixture)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := rtl.Flatten(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		codec.EncodeProgram(fp)
	}
}

func BenchmarkDecodeProgram(b *testing.B) {
	p, err := rtl.ParseProgram(fixture)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := rtl.Flatten(p)
	if err != nil {
		b.Fatal(err)
	}
	enc := codec.EncodeProgram(fp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeProgram(enc); err != nil {
			b.Fatal(err)
		}
	}
}

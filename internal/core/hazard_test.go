package core_test

import (
	"testing"

	"macc"
	"macc/internal/core"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/telemetry"
)

// baseModifiedRTL advances its pointer between the two byte loads a wide
// load would replace, so the wide load's displacement arithmetic breaks.
// The front end never emits this shape (it updates a pointer through a
// temporary and a Mov, which disqualifies the pointer as a basic induction
// variable), so the case is written as RTL.
const baseModifiedRTL = `func f(r0, r1) {
entry:
	r2 = 0
	r3 = 0
	jump loop
loop:
	r4 = r2 < r1
	if r4 goto body else exit
body:
	r5 = M.1u[r0]
	r0 = r0 + 2
	r6 = M.1u[r0-1]
	r3 = r3 + r5
	r3 = r3 + r6
	r2 = r2 + 1
	jump loop
exit:
	ret r3
}`

// TestHazardVerdicts pins every verdict of the Figure 4 hazard walk, and
// the rejections filterChunks adds after it, to one Alpha loop each. A
// rejection is asserted through its HazardReject or Missed remark; the two
// accepting verdicts through the applied loop's alias-check pairs (none for
// "safe", some for "alias-needs-runtime-check").
func TestHazardVerdicts(t *testing.T) {
	cases := []struct {
		want    string
		src     string // mini-C, or RTL when rtlText is set
		rtlText bool
		static  bool // NoRuntimeChecks
	}{
		{want: "hazard:safe", src: `
			long f(unsigned char *a, int n) {
				int i;
				long s = 0;
				for (i = 0; i < n; i++) s += a[i];
				return s;
			}`},
		{want: "hazard:alias-needs-runtime-check", src: addSrc},
		{want: "hazard:intervening-load", src: `
			long f(unsigned char *o, unsigned char *a, int n) {
				int i;
				long s = 0;
				for (i = 0; i < n; i++) {
					o[i] = a[i];
					s += o[i];
				}
				return s;
			}`},
		{want: "hazard:intervening-store", src: `
			void f(unsigned char *a, int n) {
				int i;
				for (i = 0; i < n; i++) a[i] = a[i] + 1;
			}`},
		{want: "hazard:intervening-call", src: `
			int g(int x) { return x; }
			int f(int *a, int n) {
				int i, s = 0;
				for (i = 0; i < n; i += 2) { s += a[i]; g(s); s += a[i+1]; }
				return s;
			}`},
		{want: "hazard:unknown-base", src: `
			void f(int **pp, int *b, int n) {
				int i;
				int *q;
				for (i = 0; i < n; i++) { q = pp[i]; b[i] = 1; *q = 2; b[i+1] = 3; }
			}`},
		{want: "hazard:base-modified", src: baseModifiedRTL, rtlText: true},
		{want: "alias:trip-count-unknown", src: tripUnknownSrc},
		{want: "hazard:runtime-checks-disabled", src: tripUnknownSrc, static: true},
		{want: "alignment:unprovable-statically", static: true, src: `
			long f(short *p, int n) {
				int i;
				long s = 0;
				for (i = 0; i < n; i++) s += p[i];
				return s;
			}`},
	}
	for _, tc := range cases {
		t.Run(tc.want, func(t *testing.T) {
			rec := telemetry.NewRecorder()
			cfg := macc.Config{
				Machine: machine.Alpha(), Optimize: true, Unroll: !tc.rtlText, Telemetry: rec,
				Coalesce: core.Options{Loads: true, Stores: true, NoRuntimeChecks: tc.static},
			}
			var p *macc.Program
			var err error
			if tc.rtlText {
				var rp *rtl.Program
				if rp, err = rtl.ParseProgram(tc.src); err != nil {
					t.Fatal(err)
				}
				p, err = macc.CompileRTL(rp, cfg)
			} else {
				p, err = macc.Compile(tc.src, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			switch tc.want {
			case "hazard:safe", "hazard:alias-needs-runtime-check":
				rep, ok := appliedReport(p)
				if !ok {
					t.Fatalf("not applied: %+v", p.Reports)
				}
				if gotPairs := rep.AliasCheckPairs > 0; gotPairs != (tc.want != "hazard:safe") {
					t.Errorf("alias check pairs = %d", rep.AliasCheckPairs)
				}
				return
			}
			var seen []string
			for _, r := range rec.Remarks() {
				if r.Pass != "coalesce" || (r.Name != "HazardReject" && r.Name != "NotCoalesced") {
					continue
				}
				if r.Reason == tc.want {
					return
				}
				seen = append(seen, r.Name+" "+r.Reason)
			}
			t.Errorf("no remark with reason %q; saw %v", tc.want, seen)
		})
	}
}

const tripUnknownSrc = `
	void f(short *a, short *b, int n, int m) {
		int i;
		for (i = 0; i < n*m; i += 2) { m = m + 0; b[i] = a[i]; b[i+1] = a[i+1]; }
	}`

package prom

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/version"
)

// TestWriteBuildInfo pins the exact shape of the build-identity gauge
// every /metrics surface emits first.
func TestWriteBuildInfo(t *testing.T) {
	var b strings.Builder
	if err := WriteBuildInfo(&b, 7); err != nil {
		t.Fatal(err)
	}
	want := "# HELP llmfi_build_info Build identity of this llmfi process.\n" +
		"# TYPE llmfi_build_info gauge\n" +
		fmt.Sprintf("llmfi_build_info{version=%q,schema=\"7\"} 1\n", version.Version)
	if b.String() != want {
		t.Fatalf("WriteBuildInfo:\n got %q\nwant %q", b.String(), want)
	}
}

// TestParse pins the exposition parser: labels (with escapes),
// timestamps tolerated, comments skipped, malformed rejected.
func TestParse(t *testing.T) {
	in := `# HELP llmfi_x A thing.
# TYPE llmfi_x counter
llmfi_x 41
llmfi_y{worker="w1",q="a\"b\\c\nd"} 2.5
llmfi_z{s="v"} 7 1712345678
`
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d samples, want 3", len(got))
	}
	if got[0].Name != "llmfi_x" || got[0].Value != 41 || got[0].Labels != nil {
		t.Fatalf("sample 0 = %+v", got[0])
	}
	if got[1].Labels[1].Val != "a\"b\\c\nd" {
		t.Fatalf("escape decoding: %q", got[1].Labels[1].Val)
	}
	if got[2].Value != 7 {
		t.Fatalf("timestamped sample value = %v", got[2].Value)
	}
	for _, bad := range []string{"just_a_name\n", "llmfi_x{unterminated 1\n", "llmfi_x notanumber\n"} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
}

// TestWriterSampleForms pins the two number rules and the header rule:
// counters and integer-valued floats render as plain digits whatever
// their size, other floats in shortest round-trip form, and a family's
// HELP/TYPE appears once however many samples follow.
func TestWriterSampleForms(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Counter("c_total", "C.", 1<<62)
	w.Gauge("g", "G.", 1234567, Label{Key: "k", Val: "a"})
	w.Gauge("g", "G.", 2.5e-7, Label{Key: "k", Val: "b"})
	w.Gauge("g", "G.", 1e21, Label{Key: "k", Val: "c"})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP c_total C.\n# TYPE c_total counter\nc_total 4611686018427387904\n" +
		"# HELP g G.\n# TYPE g gauge\n" +
		"g{k=\"a\"} 1234567\ng{k=\"b\"} 2.5e-07\ng{k=\"c\"} 1e+21\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestHistBuckets: a value equal to a bound lands in that bound's
// bucket (inclusive le, as both histograms this one replaced agreed),
// values past the last bound land in the overflow bucket, and Reset
// zeroes everything.
func TestHistBuckets(t *testing.T) {
	const n = 22
	h := NewHist(n)
	bounds := ExpBounds(n)
	if bounds[0] != 1e-6 || bounds[1] != 2e-6 || len(bounds) != n {
		t.Fatalf("bounds = %v", bounds)
	}
	for i := range bounds {
		h.Observe(time.Microsecond << i) // == bounds[i]
	}
	h.Observe(time.Microsecond + 1) // just past the first bound
	h.Observe(time.Hour)            // overflow
	h.Observe(0)
	got := make([]int64, n+1)
	count, sum := h.Load(got)
	want := make([]int64, n+1)
	for i := range bounds {
		want[i] = 1
	}
	want[0]++ // the zero
	want[1]++ // 1µs+1ns
	want[n]++ // the hour
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if count != n+3 {
		t.Fatalf("count = %d, want %d", count, n+3)
	}
	wantSum := (time.Microsecond<<n - time.Microsecond + time.Microsecond + 1 + time.Hour).Seconds()
	if sum != wantSum {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}
	h.Reset()
	if count, sum := h.Load(got); count != 0 || sum != 0 {
		t.Fatalf("after Reset: count %d sum %v", count, sum)
	}
	for i, c := range got {
		if c != 0 {
			t.Fatalf("after Reset: bucket %d = %d", i, c)
		}
	}
}

// TestHistObserveAllocFree: Observe sits on the serving per-token path.
func TestHistObserveAllocFree(t *testing.T) {
	h := NewHist(26)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(700 * time.Microsecond) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call", n)
	}
}

// TestHistConcurrent: goroutines observing at once lose nothing (run
// under -race in the fail-fast arm).
func TestHistConcurrent(t *testing.T) {
	const workers, each = 8, 5000
	h := NewHist(26)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(g+1) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	buckets := make([]int64, 27)
	count, sum := h.Load(buckets)
	var inBuckets int64
	for _, c := range buckets {
		inBuckets += c
	}
	if count != workers*each || inBuckets != count {
		t.Fatalf("count %d, buckets hold %d, want %d", count, inBuckets, workers*each)
	}
	if want := float64(each) * 36 * 1e-3; sum < want*(1-1e-9) || sum > want*(1+1e-9) {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

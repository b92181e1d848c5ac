package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"compisa/internal/eval"
	"compisa/internal/isa"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 over 999 samples (9 beyond) was reported")
	}
	xs = append(xs, 1000)
	got, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 over 1000 samples: %v", err)
	}
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
	if m, err := percentile(xs[:28], 0.5); err != nil || m != 14 {
		t.Fatalf("p50 of 1..28 = %v, %v; want 14", m, err)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{7}, 7}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	parent := span{name: "p", start: ms(0), end: ms(100)}
	kids := []span{
		{start: ms(10), end: ms(30)},
		{start: ms(20), end: ms(50)},  // overlaps the first: union 10..50
		{start: ms(90), end: ms(120)}, // clipped to the parent: 90..100
		{start: ms(60), end: ms(60)},  // empty
	}
	if got, want := selfTime(parent, kids), ms(50); got != want {
		t.Fatalf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != ms(100) {
		t.Fatalf("childless self time = %v, want 100ms", got)
	}

	tr := newTracer()
	root := tr.begin("serve.request", 0, 1, nil)
	a := tr.begin("eval.evaluate_batch", root, 1, nil)
	tr.end(a)
	tr.end(root)
	tr.spans[0].start, tr.spans[0].end = ms(0), ms(10)
	tr.spans[1].start, tr.spans[1].end = ms(2), ms(8)
	ls := layers(tr.spans)
	if l := ls["serve.request"]; l.n != 1 || l.total != ms(10) || l.own != ms(4) {
		t.Fatalf("serve.request = %+v, want 1 span, 10ms total, 4ms self", l)
	}
	if l := ls["eval.evaluate_batch"]; l.own != ms(6) {
		t.Fatalf("eval.evaluate_batch self = %v, want 6ms", l.own)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0, nil)
	tr.end(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}

func testCandidate(speedup float64) *eval.Candidate {
	return &eval.Candidate{
		DP:       eval.DesignPoint{ISA: eval.ISAChoice{FS: isa.X8664}, Cfg: eval.ReferenceConfig()},
		Speedup:  []float64{speedup, 1},
		NormEDP:  []float64{0.5, 1},
		Degraded: []bool{false, false},
	}
}

func TestCandidatesDigestStable(t *testing.T) {
	a, b := testCandidate(1.25), testCandidate(1.25)
	b.DP.Cfg.ROB++
	d := candidatesDigest([]*eval.Candidate{a, b})
	// The committed references hold digests: the encoding must not drift.
	if want := "2e52056a4fd02765cc27dd2e2d284914"; d != want {
		t.Fatalf("digest = %s, want %s", d, want)
	}
	if got := candidatesDigest([]*eval.Candidate{b, a}); got != d {
		t.Fatalf("digest depends on order: %s vs %s", got, d)
	}
	if got := candidatesDigest([]*eval.Candidate{testCandidate(1.25), b}); got != d {
		t.Fatalf("digest of equal candidates differs: %s vs %s", got, d)
	}
	c := testCandidate(math.Nextafter(1.25, 2))
	if got := candidatesDigest([]*eval.Candidate{c, b}); got == d {
		t.Fatal("digest missed a one-ulp change in Speedup")
	}
	c = testCandidate(1.25)
	c.Degraded[1] = true
	if got := candidatesDigest([]*eval.Candidate{c, b}); got == d {
		t.Fatal("digest missed a degraded region")
	}
}

func TestWarmStreamDeterministic(t *testing.T) {
	keys := eval.ChoiceKeys()
	const n = 200
	a := warmStream(7, keys, n, warmBatch)
	if b := warmStream(7, keys, n, warmBatch); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	if c := warmStream(8, keys, n, warmBatch); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same stream")
	}
	seen := map[string]bool{}
	repeats := 0
	for _, batch := range a {
		if len(batch) != warmBatch {
			t.Fatalf("batch of %d points, want %d", len(batch), warmBatch)
		}
		for _, p := range batch {
			cfg := eval.ReferenceConfig()
			if p.Config != nil {
				cfg = *p.Config
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("invalid config: %v", err)
			}
			choice, ok := eval.ChoiceByKey(p.ISA)
			if !ok {
				t.Fatalf("unknown ISA %q", p.ISA)
			}
			k := eval.DesignPoint{ISA: choice, Cfg: cfg}.CacheKey()
			if seen[k] {
				repeats++
			}
			seen[k] = true
		}
	}
	// Drawing a pool's size in points with replacement repeats about 1/e.
	if share := float64(repeats) / float64(n*warmBatch); math.Abs(share-1/math.E) > 0.03 {
		t.Fatalf("repeat share %.3f, want about %.3f", share, 1/math.E)
	}
}

func TestSeededOrderIsPermutation(t *testing.T) {
	a := seededOrder(3, 8)
	if !reflect.DeepEqual(a, seededOrder(3, 8)) {
		t.Fatal("same seed gave different orders")
	}
	seen := make([]bool, 8)
	for _, i := range a {
		if seen[i] {
			t.Fatalf("order %v repeats %d", a, i)
		}
		seen[i] = true
	}
}

func TestChromeTraceNestsLanes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := newTracer()
	for range 4 {
		tr.begin("x", 0, 0, nil)
	}
	tr.spans[0].start, tr.spans[0].end = ms(0), ms(100) // request
	tr.spans[1].start, tr.spans[1].end = ms(10), ms(60) // two overlapping children
	tr.spans[2].start, tr.spans[2].end = ms(20), ms(80)
	tr.spans[3].start, tr.spans[3].end = ms(100), ms(120) // starts as the request ends
	tr.spans[1].parent, tr.spans[2].parent = 1, 1
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path, map[string]any{"workload": "test"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	lane := map[float64]int{}
	for _, e := range file.TraceEvents {
		if e.Ph == "X" {
			lane[e.Ts] = e.Tid
		}
	}
	if len(lane) != 4 {
		t.Fatalf("%d complete events, want 4", len(lane))
	}
	if lane[10000] != lane[0] || lane[20000] == lane[10000] || lane[100000] != lane[0] {
		t.Fatalf("lanes %v: want the first child nested in its parent's lane, the overlapping sibling on another, the later span reusing lane 1", lane)
	}
}

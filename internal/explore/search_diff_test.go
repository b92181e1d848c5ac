package explore

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"compisa/internal/workload"
)

// filterStats tallies the incremental MP filter against scoreMP over the
// trials of a reference climb.
type filterStats struct {
	mu         sync.Mutex
	trials     int     // MP trials compared
	passed     int     // trials the filter hands on to scoreMP
	identical  int     // fast score bit-equal to scoreMP
	misses     int     // rejected trials scoreMP would have accepted
	outOfBound int     // |fast − scoreMP| above the derived bound E
	maxErr     float64 // largest |fast − scoreMP|
}

// observe compares the filter on pool candidate i (slot already fixed)
// with its scoreMP value s, against the climb's current best score.
func (f *filterStats) observe(mp *mpTrials, i int, s, bestScore float64) {
	fast := mp.score(i)
	e := mp.errPer*max(mp.kFixed, mp.k[i]) + mp.errAbs
	d := math.Abs(fast - s)
	f.trials++
	if math.Float64bits(fast) == math.Float64bits(s) {
		f.identical++
	}
	if !(d <= e) {
		f.outOfBound++
	}
	f.maxErr = max(f.maxErr, d)
	if !mp.rejects(i, bestScore) {
		f.passed++
	} else if s > bestScore+1e-12 {
		f.misses++
	}
}

func (f *filterStats) merge(o *filterStats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.trials += o.trials
	f.passed += o.passed
	f.identical += o.identical
	f.misses += o.misses
	f.outOfBound += o.outOfBound
	f.maxErr = max(f.maxErr, o.maxErr)
}

func (f *filterStats) check(t *testing.T) {
	t.Helper()
	t.Logf("filter: %d MP trials, %d passed to scoreMP, %d bit-identical, max |fast-scoreMP| %.3g",
		f.trials, f.passed, f.identical, f.maxErr)
	if f.misses != 0 || f.outOfBound != 0 {
		t.Errorf("filter: %d missed accepts, %d fast scores outside the error bound", f.misses, f.outOfBound)
	}
}

// oracleClimb is the reference hill climb: every feasible trial, the
// current core included, is scored by scoreMP (scoreST for ST objectives)
// and accepted on that score alone. It also checks each seed's stored score
// against the oracle and runs the production filter beside every MP trial,
// recording its verdicts in fs.
func oracleClimb(t *testing.T, fs *filterStats) climbFunc {
	return func(ctx context.Context, si *suiteIndex, spec SearchSpec, seed CMP, pool []*Candidate) CMP {
		if s := si.score(&seed.Cores, spec.Objective); math.Float64bits(s) != math.Float64bits(seed.Score) {
			t.Errorf("seed score %v, oracle %v", seed.Score, s)
		}
		single := spec.Objective.SingleThread()
		var mp *mpTrials
		if !single {
			mp = newMPTrials(si, pool, spec.Objective == ObjMPEDP)
		}
		var local filterStats
		defer fs.merge(&local)
		best := seed
		for iter := 0; iter < 12; iter++ {
			improved := false
			for slot := 0; slot < 4; slot++ {
				cur := best
				if mp != nil {
					mp.fix(&cur.Cores, slot)
				}
				for i, c := range pool {
					if ctx.Err() != nil {
						return best
					}
					trial := cur.Cores
					trial[slot] = c
					if !feasible(&trial, spec.Budget, single) {
						continue
					}
					s := si.score(&trial, spec.Objective)
					if mp != nil {
						local.observe(mp, i, s, best.Score)
					}
					if s > best.Score+1e-12 {
						best = CMP{Cores: trial, Score: s}
						improved = true
					}
				}
			}
			if !improved {
				break
			}
		}
		return best
	}
}

// sameCMP reports whether two search results agree exactly: error text,
// chosen cores and score bits.
func sameCMP(a CMP, aErr error, b CMP, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	return a.Cores == b.Cores && math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// TestSearchMatchesOracleClimb runs every MP objective × budget of the
// Figure 5/6 sweeps (Table III/IV's power budgets are a subset) for every
// organization twice: through the scoreMP-only reference climb and through
// production Search under GOMAXPROCS=1 and N. Cores and score bits must be
// identical, the filter must never reject a trial scoreMP accepts, and every
// stored score must be scoreMP's. -short runs one composite-full search per
// objective.
func TestSearchMatchesOracleClimb(t *testing.T) {
	if raceEnabled {
		t.Skip("full-suite search too slow under the race detector; TestFault* covers concurrency")
	}
	db, s := searcher(t)
	type searchCase struct {
		org Organization
		obj Objective
		b   Budget
	}
	cases := []searchCase{
		{OrgCompositeFull, ObjMPThroughput, Budget{AreaMM2: 48}},
		{OrgCompositeFull, ObjMPEDP, Budget{PeakW: 20}},
	}
	if !testing.Short() {
		cases = nil
		seen := map[searchCase]bool{}
		for _, org := range Organizations() {
			for _, obj := range []Objective{ObjMPThroughput, ObjMPEDP} {
				for _, b := range append(append([]Budget{}, MPPowerBudgets...), AreaBudgets...) {
					if c := (searchCase{org, obj, b}); !seen[c] {
						seen[c] = true
						cases = append(cases, c)
					}
				}
			}
		}
	}
	ctx := context.Background()
	var fs filterStats
	procs := []int{1, max(2, runtime.NumCPU())}
	for _, c := range cases {
		cands, err := s.Candidates(ctx, c.org)
		if err != nil {
			t.Fatal(err)
		}
		spec := SearchSpec{Candidates: cands, Budget: c.b, Objective: c.obj,
			Homogeneous: c.org == OrgHomogeneous, MaxCandidates: s.MaxCandidates}
		want, wantErr := search(ctx, spec, db.Regions, oracleClimb(t, &fs))
		for _, p := range procs {
			prev := runtime.GOMAXPROCS(p)
			got, err := Search(ctx, spec, db.Regions)
			runtime.GOMAXPROCS(prev)
			if !sameCMP(got, err, want, wantErr) {
				t.Errorf("%v obj %d %s GOMAXPROCS=%d: Search = %v (%v), oracle climb = %v (%v)",
					c.org, c.obj, c.b, p, got, err, want, wantErr)
			}
		}
		if wantErr == nil {
			si := newSuiteIndex(db.Regions)
			if s := si.score(&want.Cores, c.obj); math.Float64bits(s) != math.Float64bits(want.Score) {
				t.Errorf("%v obj %d %s: stored score %v, scoreMP %v", c.org, c.obj, c.b, want.Score, s)
			}
		}
	}
	fs.check(t)
	if fs.trials == 0 {
		t.Error("no MP trials observed")
	}
}

// randomCandidates builds n candidates over nRegions with random speedups
// and EDPs; every third one is degraded on a random quarter of its regions,
// scored at eval's default penalties (speedup 0.25, normalized EDP 4.0).
func randomCandidates(rng *rand.Rand, n, nRegions int) []*Candidate {
	choices := CompositeChoices()
	out := make([]*Candidate, n)
	for i := range out {
		c := fakeCandidate(nRegions, 1, 1, 3+rng.Float64()*20, 9+rng.Float64()*20)
		c.DP.ISA = choices[i%len(choices)]
		for r := 0; r < nRegions; r++ {
			c.Speedup[r] = 0.2 + 3.8*rng.Float64()
			c.NormEDP[r] = 0.1 + 4.9*rng.Float64()
			if i%3 == 0 && rng.Intn(4) == 0 {
				c.Speedup[r], c.NormEDP[r] = 0.25, 4.0
			}
		}
		out[i] = c
	}
	return out
}

// fewBenchRegions is the suite restricted to three benchmarks, which
// newSuiteIndex scores with mixes-with-repetition.
func fewBenchRegions() []workload.Region {
	keep := map[string]bool{}
	for _, b := range workload.Names()[:3] {
		keep[b] = true
	}
	var out []workload.Region
	for _, r := range workload.Regions() {
		if keep[r.Benchmark] {
			out = append(out, r)
		}
	}
	return out
}

// TestSlotFilterBound checks the incremental slot score against scoreMP on
// random (CMP, slot, candidate) triples, on the full suite and on the
// fewer-than-four-benchmarks fallback suite: the fast score stays within the
// derived bound E, and the filter never rejects a trial that scoreMP would
// accept against any best score at or around the acceptance boundary.
func TestSlotFilterBound(t *testing.T) {
	suites := []struct {
		name    string
		regions []workload.Region
	}{{"full", workload.Regions()}, {"three-benchmark", fewBenchRegions()}}
	for _, suite := range suites {
		name, regions := suite.name, suite.regions
		si := newSuiteIndex(regions)
		if name == "three-benchmark" && len(si.mixes) == 0 {
			t.Fatal("fallback suite has no mixes")
		}
		rng := rand.New(rand.NewSource(int64(len(regions))))
		pool := randomCandidates(rng, 24, len(regions))
		// Uniform and tied values exercise exact ties between assignments.
		pool = append(pool, fakeCandidate(len(regions), 2, 0.5, 10, 12), fakeCandidate(len(regions), 2, 0.5, 10, 12))
		var fs filterStats
		for _, edp := range []bool{false, true} {
			mp := newMPTrials(si, pool, edp)
			for trial := 0; trial < 200; trial++ {
				var cores [4]*Candidate
				for j := range cores {
					cores[j] = pool[rng.Intn(len(pool))]
				}
				slot, i := rng.Intn(4), rng.Intn(len(pool))
				mp.fix(&cores, slot)
				cores[slot] = pool[i]
				s := si.scoreMP(&cores, edp)
				// Best scores straddling the accept boundary s > best+1e-12.
				edge := s - 1e-12
				for _, best := range []float64{edge, math.Nextafter(edge, math.Inf(-1)),
					math.Nextafter(edge, math.Inf(1)), s - 2e-12, s, s - 1e-9} {
					fs.observe(mp, i, s, best)
				}
				if !mp.rejects(i, s+1e-9) {
					t.Errorf("%s edp=%v: filter passes a trial 1e-9 below the best score", name, edp)
				}
			}
		}
		t.Run(name, func(t *testing.T) { fs.check(t) })
	}
}

// TestScoreUniformBitExact: the homogeneous fast path equals scoreMP bit for
// bit on random, degraded and uniform candidates, on the full suite and the
// fallback suite, for both MP objectives.
func TestScoreUniformBitExact(t *testing.T) {
	for _, regions := range [][]workload.Region{workload.Regions(), fewBenchRegions()} {
		si := newSuiteIndex(regions)
		rng := rand.New(rand.NewSource(7))
		pool := append(randomCandidates(rng, 30, len(regions)), fakeCandidate(len(regions), 2, 0.5, 10, 12))
		checkUniform(t, si, pool)
	}
}

// TestScoreUniformCompositeFull: the same for every composite-full
// candidate of the real design space.
func TestScoreUniformCompositeFull(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the composite-full design space; long mode only")
	}
	if raceEnabled {
		t.Skip("full-suite profiling too slow under the race detector")
	}
	db, s := searcher(t)
	cands, err := s.Candidates(context.Background(), OrgCompositeFull)
	if err != nil {
		t.Fatal(err)
	}
	checkUniform(t, newSuiteIndex(db.Regions), cands)
}

func checkUniform(t *testing.T, si *suiteIndex, cands []*Candidate) {
	t.Helper()
	for _, obj := range []Objective{ObjMPThroughput, ObjMPEDP} {
		for _, c := range cands {
			cores := [4]*Candidate{c, c, c, c}
			want := si.scoreMP(&cores, obj == ObjMPEDP)
			if got := si.scoreUniform(c, obj); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("objective %d, %s: scoreUniform %v, scoreMP %v", obj, c.DP, got, want)
			}
		}
	}
}

// TestSearchHomogeneousNoFeasibleDesign: when no four identical cores fit
// the budget, a homogeneous search fails with the named error instead of
// building heterogeneous seeds. The two fake cores are each within the
// per-core limits, and a 2+2 mix of them fits, but neither fits four times.
func TestSearchHomogeneousNoFeasibleDesign(t *testing.T) {
	regions := workload.Regions()
	n := len(regions)
	choices := CompositeChoices()
	areaHeavy := fakeCandidate(n, 1.5, 1, 1, 20) // 4x: 4W, 80mm2
	powerHeavy := fakeCandidate(n, 2, 1, 10, 1)  // 4x: 40W, 4mm2
	areaHeavy.DP.ISA, powerHeavy.DP.ISA = choices[0], choices[1]
	budget := Budget{PeakW: 22, AreaMM2: 44}
	mix := [4]*Candidate{areaHeavy, areaHeavy, powerHeavy, powerHeavy}
	if !feasible(&mix, budget, false) {
		t.Fatal("the 2+2 mix must fit the budget")
	}
	spec := SearchSpec{Candidates: []*Candidate{areaHeavy, powerHeavy}, Budget: budget,
		Objective: ObjMPThroughput, Homogeneous: true}
	cmp, err := Search(context.Background(), spec, regions)
	if err == nil || !strings.Contains(err.Error(), "no feasible homogeneous") {
		t.Fatalf("homogeneous search with no feasible design = %v, %v; want the no-feasible error", cmp, err)
	}

	// With room for four area-heavy cores it returns exactly that design,
	// scored by the oracle.
	spec.Budget = Budget{PeakW: 22, AreaMM2: 80}
	cmp, err = Search(context.Background(), spec, regions)
	if err != nil {
		t.Fatal(err)
	}
	want := [4]*Candidate{areaHeavy, areaHeavy, areaHeavy, areaHeavy}
	if cmp.Cores != want || cmp.Score != newSuiteIndex(regions).scoreMP(&want, false) {
		t.Errorf("homogeneous search = %v, want four area-heavy cores", cmp)
	}
}

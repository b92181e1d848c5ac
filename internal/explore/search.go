package explore

import (
	"context"
	"fmt"
	"math"
	"sort"

	"compisa/internal/par"
	"compisa/internal/workload"
)

// Budget constrains a 4-core CMP. Zero fields are unlimited. For
// single-thread objectives the power budget applies to one core at a time
// (dynamic multicore topology: only one core is powered on).
type Budget struct {
	PeakW   float64
	AreaMM2 float64
}

func (b Budget) String() string {
	switch {
	case b.PeakW > 0:
		return fmt.Sprintf("%gW", b.PeakW)
	case b.AreaMM2 > 0:
		return fmt.Sprintf("%gmm2", b.AreaMM2)
	default:
		return "unlimited"
	}
}

// Objective selects what the search optimizes.
type Objective uint8

const (
	// ObjMPThroughput maximizes multi-programmed workload throughput.
	ObjMPThroughput Objective = iota
	// ObjMPEDP minimizes multi-programmed energy-delay product.
	ObjMPEDP
	// ObjSTPerf maximizes single-thread performance with free migration
	// across the four cores.
	ObjSTPerf
	// ObjSTEDP minimizes single-thread EDP with free migration.
	ObjSTEDP
)

// SingleThread reports whether the objective powers one core at a time.
func (o Objective) SingleThread() bool { return o == ObjSTPerf || o == ObjSTEDP }

// CMP is a four-core multicore design.
type CMP struct {
	Cores [4]*Candidate
	// Score is the objective value (higher is better; EDP objectives
	// store the negated normalized EDP).
	Score float64
}

// TotalPeak and TotalArea sum the cores.
func (c CMP) TotalPeak() float64 {
	s := 0.0
	for _, core := range c.Cores {
		s += core.PeakW
	}
	return s
}

func (c CMP) TotalArea() float64 {
	s := 0.0
	for _, core := range c.Cores {
		s += core.AreaMM2
	}
	return s
}

// suiteIndex caches the benchmark/region structure used by the schedulers.
type suiteIndex struct {
	benchRegions [][]int     // per benchmark: flattened region indices
	weights      [][]float64 // per benchmark: region weights
	mixes        [][4]int    // all 4-benchmark combinations
	perms        [][4]int    // all assignments of 4 threads to 4 cores (perms4)
	// steps is the phase-step table of every mix, flattened in scoring
	// order: step t of a mix runs region t mod len of each of its four
	// benchmarks, for as many steps as its longest benchmark has regions.
	// Mix m owns steps[mixStart[m]:mixStart[m+1]].
	steps    [][4]int
	mixStart []int
}

// perms4 lists the assignments of 4 threads to 4 cores in lexicographic
// order, the order in which the schedulers break ties between them.
var perms4 = func() [][4]int {
	var out [][4]int
	var permute func(rest []int, cur []int)
	permute = func(rest, cur []int) {
		if len(rest) == 0 {
			var p [4]int
			copy(p[:], cur)
			out = append(out, p)
			return
		}
		for i := range rest {
			nr := append(append([]int{}, rest[:i]...), rest[i+1:]...)
			permute(nr, append(cur, rest[i]))
		}
	}
	permute([]int{0, 1, 2, 3}, nil)
	return out
}()

func newSuiteIndex(regions []workload.Region) *suiteIndex {
	si := &suiteIndex{}
	byBench := map[string]int{}
	for i, r := range regions {
		bi, ok := byBench[r.Benchmark]
		if !ok {
			bi = len(si.benchRegions)
			byBench[r.Benchmark] = bi
			si.benchRegions = append(si.benchRegions, nil)
			si.weights = append(si.weights, nil)
		}
		si.benchRegions[bi] = append(si.benchRegions[bi], i)
		si.weights[bi] = append(si.weights[bi], r.Weight)
	}
	nb := len(si.benchRegions)
	for a := 0; a < nb; a++ {
		for b := a + 1; b < nb; b++ {
			for c := b + 1; c < nb; c++ {
				for d := c + 1; d < nb; d++ {
					si.mixes = append(si.mixes, [4]int{a, b, c, d})
				}
			}
		}
	}
	// A suite with fewer than four benchmarks (shrunk suites in tests,
	// partial workloads) has no 4-distinct mixes; fall back to mixes with
	// repetition so multi-programmed scores stay defined instead of 0/0.
	if len(si.mixes) == 0 && nb > 0 {
		for a := 0; a < nb; a++ {
			for b := a; b < nb; b++ {
				for c := b; c < nb; c++ {
					for d := c; d < nb; d++ {
						si.mixes = append(si.mixes, [4]int{a, b, c, d})
					}
				}
			}
		}
	}
	si.perms = perms4
	si.mixStart = make([]int, len(si.mixes)+1)
	for m, mix := range si.mixes {
		maxLen := 0
		for _, b := range mix {
			maxLen = max(maxLen, len(si.benchRegions[b]))
		}
		si.mixStart[m+1] = si.mixStart[m] + maxLen
	}
	si.steps = make([][4]int, 0, si.mixStart[len(si.mixes)])
	for m, mix := range si.mixes {
		for t := 0; t < si.mixStart[m+1]-si.mixStart[m]; t++ {
			var phase [4]int
			for i, b := range mix {
				rs := si.benchRegions[b]
				phase[i] = rs[t%len(rs)]
			}
			si.steps = append(si.steps, phase)
		}
	}
	return si
}

// mixSteps returns mix m's phase steps.
func (si *suiteIndex) mixSteps(m int) [][4]int {
	return si.steps[si.mixStart[m]:si.mixStart[m+1]]
}

// scoreMP evaluates a 4-core CMP on the multi-programmed scheduler: every
// 4-benchmark mix runs with per-phase-step optimal thread-to-core
// assignment (24 permutations), exactly the contention model of Section VI.
// It is the reference every faster MP scorer is checked against, and the
// only source of a stored MP score outside homogeneous designs.
func (si *suiteIndex) scoreMP(cores *[4]*Candidate, edp bool) float64 {
	total := 0.0
	for _, phase := range si.steps {
		best := math.Inf(-1)
		for _, perm := range si.perms {
			v := 0.0
			for th := 0; th < 4; th++ {
				core := cores[perm[th]]
				if edp {
					v -= core.NormEDP[phase[th]]
				} else {
					v += core.Speedup[phase[th]]
				}
			}
			if v > best {
				best = v
			}
		}
		total += best / 4
	}
	return total / float64(len(si.steps))
}

// scoreUniform scores the homogeneous CMP {c, c, c, c}. Under an MP
// objective all 24 permutations of scoreMP sum the same four values in the
// same (thread) order, so one sum per step is bit-identical to scoreMP.
func (si *suiteIndex) scoreUniform(c *Candidate, obj Objective) float64 {
	if obj.SingleThread() {
		cores := [4]*Candidate{c, c, c, c}
		return si.score(&cores, obj)
	}
	edp := obj == ObjMPEDP
	total := 0.0
	for _, phase := range si.steps {
		v := 0.0
		for th := 0; th < 4; th++ {
			if edp {
				v -= c.NormEDP[phase[th]]
			} else {
				v += c.Speedup[phase[th]]
			}
		}
		// scoreMP's running max, so a NaN step sum scores -Inf there too.
		best := math.Inf(-1)
		if v > best {
			best = v
		}
		total += best / 4
	}
	return total / float64(len(si.steps))
}

// scoreST evaluates single-thread objectives: each benchmark migrates every
// region to its best core (SimPoint weights applied).
func (si *suiteIndex) scoreST(cores *[4]*Candidate, edp bool) float64 {
	total := 0.0
	for b := range si.benchRegions {
		bs := 0.0
		for k, r := range si.benchRegions[b] {
			best := math.Inf(-1)
			for _, core := range cores {
				var v float64
				if edp {
					v = -core.NormEDP[r]
				} else {
					v = core.Speedup[r]
				}
				if v > best {
					best = v
				}
			}
			bs += si.weights[b][k] * best
		}
		total += bs
	}
	return total / float64(len(si.benchRegions))
}

func (si *suiteIndex) score(cores *[4]*Candidate, obj Objective) float64 {
	switch obj {
	case ObjMPThroughput:
		return si.scoreMP(cores, false)
	case ObjMPEDP:
		return si.scoreMP(cores, true)
	case ObjSTPerf:
		return si.scoreST(cores, false)
	default:
		return si.scoreST(cores, true)
	}
}

// Single-slot trials of an MP hill climb are scored incrementally. While
// one slot is varied the other three cores stay fixed, so the 24
// assignments of a step split by which thread runs on the varied slot: the
// trial of candidate c scores step s as max_th(val(c, region_th) + B[s][th]),
// where B[s][th] is the best of the 6 assignments of the other three threads
// to the fixed cores. B is built once per (climb position, slot).
//
// The fast score is only a filter. Rounding error bound: scoreMP sums each
// assignment as (((0+x0)+x1)+x2)+x3 and the table as ((0+y0)+y1)+y2 plus the
// vacated thread's value. Each is within γ3·4K of the exact sum of the same
// four values, where K bounds |value| over the four cores and γn = nu/(1−nu),
// u = 2⁻⁵³. The max over the same 24 exact sums keeps that bound, and /4 is
// exact, so each step's term differs by at most 2γ3·K. Both accumulate the
// N steps in the same order, each running sum within γ(N−1)·N·K(1+γ3) of its
// exact value, and the final /N rounds once more. So
//
//	|fast − scoreMP| ≤ (2γ3 + 2γ(N−1) + 2u)·K·(1+O(Nu)) < (2N+8)·(u·K + η) = E,
//
// η = 2⁻¹⁰⁷⁴ covering underflow. A trial is rejected when fast ≤ fl(X − δ),
// X = best.Score+1e-12 rounded exactly as in the accept test. Then
// scoreMP ≤ X − δ + u(|X|+δ) + E, which is ≤ X whenever δ(1−u) ≥ E + u|X|.
// δ = 2(E + u|X|) meets that; the factor 2 also absorbs the rounding of δ's
// own arithmetic. Every trial that passes the filter is re-scored by scoreMP,
// which alone decides acceptance, so chosen designs and stored scores are
// exactly those of a scoreMP-only climb.
const (
	unitRoundoff = 0x1p-53
	minSubnormal = 0x1p-1074
)

// otherThreads[th] lists the threads other than th, in thread order.
var otherThreads = [4][3]int{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}

// perms3 are the six assignments of three threads to three cores.
var perms3 = [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// objValues writes c's per-region MP objective values (speedup, or negated
// normalized EDP) into dst and returns them with their largest magnitude.
func objValues(dst []float64, c *Candidate, edp bool) ([]float64, float64) {
	k := 0.0
	for r := range c.Speedup {
		v := c.Speedup[r]
		if edp {
			v = -c.NormEDP[r]
		}
		dst = append(dst, v)
		k = max(k, math.Abs(v))
	}
	return dst, k
}

// mpTrials scores the single-slot trials of one MP climb over a fixed pool.
type mpTrials struct {
	si     *suiteIndex
	edp    bool
	n      int       // regions per candidate
	vals   []float64 // pool objective values, n per candidate
	k      []float64 // per pool candidate: largest |value|
	fixed  [3][]float64
	kFixed float64
	table  []float64 // B, 4 per step
	errPer float64   // E per unit of K: (2N+8)·u
	errAbs float64   // E's underflow term: (2N+8)·η
}

func newMPTrials(si *suiteIndex, pool []*Candidate, edp bool) *mpTrials {
	nSteps := float64(2*len(si.steps) + 8)
	t := &mpTrials{si: si, edp: edp, k: make([]float64, len(pool)),
		table:  make([]float64, 4*len(si.steps)),
		errPer: nSteps * unitRoundoff, errAbs: nSteps * minSubnormal}
	if len(pool) > 0 {
		t.n = len(pool[0].Speedup)
		t.vals = make([]float64, 0, len(pool)*t.n)
	}
	for i, c := range pool {
		t.vals, t.k[i] = objValues(t.vals, c, edp)
	}
	return t
}

// fix builds the slot table for varying slot with the other cores fixed.
func (t *mpTrials) fix(cores *[4]*Candidate, slot int) {
	t.kFixed = 0
	f := 0
	for j, c := range cores {
		if j == slot {
			continue
		}
		var k float64
		t.fixed[f], k = objValues(t.fixed[f][:0], c, t.edp)
		t.kFixed = max(t.kFixed, k)
		f++
	}
	for s, phase := range t.si.steps {
		for th, o := range otherThreads {
			best := math.Inf(-1)
			for _, p := range perms3 {
				v := 0.0
				v += t.fixed[p[0]][phase[o[0]]]
				v += t.fixed[p[1]][phase[o[1]]]
				v += t.fixed[p[2]][phase[o[2]]]
				best = max(best, v)
			}
			t.table[4*s+th] = best
		}
	}
}

// score is the fast score of pool candidate i in the fixed slot.
func (t *mpTrials) score(i int) float64 {
	v := t.vals[i*t.n : (i+1)*t.n]
	total := 0.0
	for s, phase := range t.si.steps {
		b := t.table[4*s : 4*s+4 : 4*s+4]
		m := max(v[phase[0]]+b[0], v[phase[1]]+b[1], v[phase[2]]+b[2], v[phase[3]]+b[3])
		total += m / 4
	}
	return total / float64(len(t.si.steps))
}

// rejects reports whether pool candidate i in the fixed slot provably
// cannot beat bestScore by the climb's 1e-12 margin (see the bound above).
// A non-finite bound filters nothing.
func (t *mpTrials) rejects(i int, bestScore float64) bool {
	x := bestScore + 1e-12
	e := t.errPer*max(t.kFixed, t.k[i]) + t.errAbs
	delta := 2 * (e + unitRoundoff*math.Abs(x))
	return delta < math.Inf(1) && t.score(i) <= x-delta
}

// feasible checks a full CMP against the budget.
func feasible(cores *[4]*Candidate, b Budget, st bool) bool {
	peak, area := 0.0, 0.0
	for _, c := range cores {
		if st {
			if b.PeakW > 0 && c.PeakW > b.PeakW {
				return false
			}
		} else {
			peak += c.PeakW
		}
		area += c.AreaMM2
	}
	if !st && b.PeakW > 0 && peak > b.PeakW {
		return false
	}
	if b.AreaMM2 > 0 && area > b.AreaMM2 {
		return false
	}
	return true
}

// SearchSpec describes one multicore search.
type SearchSpec struct {
	Candidates  []*Candidate
	Budget      Budget
	Objective   Objective
	Homogeneous bool // all four cores must be identical
	// MaxCandidates caps the pruned candidate set fed to hill climbing.
	MaxCandidates int
	// Constraint optionally rejects candidates (Figure 9's
	// feature-constrained searches).
	Constraint func(*Candidate) bool
}

// prune reduces the candidate set: budget-infeasible and constraint-failing
// candidates are dropped; the survivors are ranked by objective-relevant
// utility and capped, always keeping each region's top specialists so
// heterogeneity stays discoverable.
func prune(spec SearchSpec) []*Candidate {
	// ranked carries a candidate's sort keys, computed once.
	type ranked struct {
		c                *Candidate
		util, effW, effA float64
	}
	isEDP := spec.Objective == ObjMPEDP || spec.Objective == ObjSTEDP
	var ok []ranked
	for _, c := range spec.Candidates {
		if spec.Constraint != nil && !spec.Constraint(c) {
			continue
		}
		// Per-core peak power: every core of an MP design, and the one
		// powered core of an ST design, must fit the budget alone.
		if spec.Budget.PeakW > 0 && c.PeakW > spec.Budget.PeakW {
			continue
		}
		if spec.Budget.AreaMM2 > 0 && c.AreaMM2 > spec.Budget.AreaMM2 {
			continue
		}
		r := ranked{c: c}
		if isEDP {
			s := 0.0
			for _, v := range c.NormEDP {
				s += v
			}
			r.util = -s
		} else {
			r.util = c.MeanSpeedup()
		}
		// Efficiency ranks: under power/area budgets the best building
		// blocks maximize value per watt / per mm², not raw value. For
		// speedup objectives that is utility/cost; for (negative-valued)
		// EDP objectives it is utility*cost, which prefers low EDP at low
		// cost.
		if isEDP {
			r.effW, r.effA = r.util*c.PeakW, r.util*c.AreaMM2
		} else {
			r.effW, r.effA = r.util/c.PeakW, r.util/c.AreaMM2
		}
		ok = append(ok, r)
	}
	if len(ok) == 0 {
		return nil
	}
	max := spec.MaxCandidates
	if max <= 0 {
		max = 300
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].util > ok[j].util })
	keep := map[*Candidate]bool{}
	for i := 0; i < len(ok) && i < max*3/4; i++ {
		keep[ok[i].c] = true
	}
	// keepHeads keeps up to n candidates per ISA, in s's order, so a
	// globally mediocre ISA can still contribute its specialist cores.
	keepHeads := func(s []ranked, n int) {
		perISA := map[string]int{}
		for _, r := range s {
			k := r.c.DP.ISA.Key()
			if perISA[k] < n {
				keep[r.c] = true
				perISA[k]++
			}
		}
	}
	keepHeads(ok, 8)
	// sortedBy returns ok re-sorted by less, keeping its first n.
	sortedBy := func(less func(a, b *ranked) bool, n int) []ranked {
		s := append([]ranked{}, ok...)
		sort.Slice(s, func(i, j int) bool { return less(&s[i], &s[j]) })
		for i := 0; i < len(s) && i < n; i++ {
			keep[s[i].c] = true
		}
		return s
	}
	// Keep the smallest/coolest cores so tight budgets always have a
	// feasible homogeneous seed and cheap filler cores.
	sortedBy(func(a, b *ranked) bool { return a.c.AreaMM2 < b.c.AreaMM2 }, 25)
	sortedBy(func(a, b *ranked) bool { return a.c.PeakW < b.c.PeakW }, 25)
	byEffW := sortedBy(func(a, b *ranked) bool { return a.effW > b.effW }, 80)
	sortedBy(func(a, b *ranked) bool { return a.effA > b.effA }, 80)
	// Per-ISA efficiency heads, mirroring the per-ISA utility heads.
	keepHeads(byEffW, 6)
	// Region specialists: best 3 per region per criterion.
	nRegions := len(ok[0].c.Speedup)
	for r := 0; r < nRegions; r++ {
		type rc struct {
			c *Candidate
			v float64
		}
		var per []rc
		for _, o := range ok {
			v := o.c.Speedup[r]
			if isEDP {
				v = -o.c.NormEDP[r]
			}
			per = append(per, rc{o.c, v})
		}
		sort.Slice(per, func(i, j int) bool { return per[i].v > per[j].v })
		for i := 0; i < 3 && i < len(per); i++ {
			keep[per[i].c] = true
		}
	}
	// The union of the utility head, the specialists, and the small cores
	// is the search set; specialists must survive, so no further cap.
	var out []*Candidate
	for _, r := range ok {
		if keep[r.c] {
			out = append(out, r.c)
		}
	}
	return out
}

// Search finds a (locally) optimal 4-core CMP by steepest-ascent hill
// climbing over single-core replacements — the paper likewise reports local
// optima to keep its 102.5-trillion-combination search tractable.
// Cancellation of ctx aborts the climb promptly (the check sits inside the
// per-candidate scoring loops) and returns ctx.Err().
func Search(ctx context.Context, spec SearchSpec, regions []workload.Region) (CMP, error) {
	return search(ctx, spec, regions, hillClimb)
}

// climbFunc hill-climbs seed over an explicit candidate pool.
type climbFunc func(ctx context.Context, si *suiteIndex, spec SearchSpec, seed CMP, pool []*Candidate) CMP

// search is Search with the hill climb as a parameter, so tests can run a
// scoreMP-only reference climb through the same seeding and polish.
func search(ctx context.Context, spec SearchSpec, regions []workload.Region, climb climbFunc) (CMP, error) {
	si := newSuiteIndex(regions)
	cands := prune(spec)
	if len(cands) == 0 {
		return CMP{}, fmt.Errorf("explore: no feasible candidates under %s", spec.Budget)
	}
	st := spec.Objective.SingleThread()

	// Seeds: the best feasible homogeneous CMP at the full budget and at
	// reduced budgets. A full-budget homogeneous seed saturates the
	// constraint, leaving hill climbing no slack to upgrade any single
	// core; seeds with headroom escape that local optimum.
	bestHomogeneous := func(b Budget) (CMP, bool) {
		var best CMP
		found := false
		for _, c := range cands {
			if ctx.Err() != nil {
				return best, found
			}
			cores := [4]*Candidate{c, c, c, c}
			if !feasible(&cores, b, st) {
				continue
			}
			s := si.scoreUniform(c, spec.Objective)
			if !found || s > best.Score {
				best = CMP{Cores: cores, Score: s}
				found = true
			}
		}
		return best, found
	}
	noSeed := fmt.Errorf("explore: no feasible homogeneous seed under %s", spec.Budget)
	if spec.Homogeneous {
		// Homogeneous organizations take the full-budget seed.
		best, ok := bestHomogeneous(spec.Budget)
		if err := ctx.Err(); err != nil {
			return CMP{}, err
		}
		if !ok {
			return CMP{}, noSeed
		}
		return best, nil
	}
	seedBudgets := []float64{1.0, 0.85, 0.7, 0.55}
	var seeds []CMP
	for _, frac := range seedBudgets {
		b := spec.Budget
		b.PeakW *= frac
		b.AreaMM2 *= frac
		if s, ok := bestHomogeneous(b); ok {
			seeds = append(seeds, s)
		}
	}
	// Maximum-slack seed: four copies of the cheapest core, so the climb
	// can grow a heterogeneous design bottom-up even when the budget
	// admits no slack around the best homogeneous design.
	cheapest := cands[0]
	for _, c := range cands[1:] {
		if c.PeakW+c.AreaMM2/10 < cheapest.PeakW+cheapest.AreaMM2/10 {
			cheapest = c
		}
	}
	cheapCores := [4]*Candidate{cheapest, cheapest, cheapest, cheapest}
	if feasible(&cheapCores, spec.Budget, st) {
		seeds = append(seeds, CMP{Cores: cheapCores, Score: si.scoreUniform(cheapest, spec.Objective)})
	}
	// Per-ISA homogeneous seeds: the best feasible 4x design of each of
	// the strongest ISA choices, so pairwise ISA mixes are reachable.
	{
		type isaSeed struct {
			cmp   CMP
			score float64
		}
		bestPer := map[string]isaSeed{}
		for _, c := range cands {
			if ctx.Err() != nil {
				break
			}
			cores := [4]*Candidate{c, c, c, c}
			if !feasible(&cores, spec.Budget, st) {
				continue
			}
			s := si.scoreUniform(c, spec.Objective)
			k := c.DP.ISA.Key()
			if cur, ok := bestPer[k]; !ok || s > cur.score {
				bestPer[k] = isaSeed{CMP{Cores: cores, Score: s}, s}
			}
		}
		var list []isaSeed
		for _, v := range bestPer {
			list = append(list, v)
		}
		sort.Slice(list, func(i, j int) bool { return list[i].score > list[j].score })
		for i := 0; i < len(list) && i < 6; i++ {
			seeds = append(seeds, list[i].cmp)
		}
		// 2+2 ISA-pair seeds among the strongest per-ISA designs, so
		// two-ISA mixes are directly reachable under tight budgets.
		top := len(list)
		if top > 5 {
			top = 5
		}
		for i := 0; i < top; i++ {
			for j := i + 1; j < top; j++ {
				cores := [4]*Candidate{list[i].cmp.Cores[0], list[i].cmp.Cores[0],
					list[j].cmp.Cores[0], list[j].cmp.Cores[0]}
				if feasible(&cores, spec.Budget, st) {
					seeds = append(seeds, CMP{Cores: cores, Score: si.score(&cores, spec.Objective)})
				}
			}
		}
	}
	if len(seeds) == 0 {
		return CMP{}, noSeed
	}

	results, err := par.Map(ctx, len(seeds), 0, func(i int) (CMP, error) {
		return climb(ctx, si, spec, seeds[i], cands), nil
	})
	if err != nil {
		return CMP{}, err
	}
	if err := ctx.Err(); err != nil {
		return CMP{}, err
	}
	var best CMP
	for i, r := range results {
		if i == 0 || r.Score > best.Score {
			best = r
		}
	}
	// Polish pass: re-climb with every configuration of the winning ISAs
	// available, so the final microarchitectures are exactly tuned (the
	// pruned set only carries each ISA's highlights).
	inBest := map[string]bool{}
	for _, c := range best.Cores {
		inBest[c.DP.ISA.Key()] = true
	}
	extended := append([]*Candidate{}, cands...)
	seen := map[*Candidate]bool{}
	for _, c := range cands {
		seen[c] = true
	}
	for _, c := range spec.Candidates {
		if inBest[c.DP.ISA.Key()] && !seen[c] {
			if spec.Constraint == nil || spec.Constraint(c) {
				extended = append(extended, c)
			}
		}
	}
	best = climb(ctx, si, spec, best, extended)
	if err := ctx.Err(); err != nil {
		return CMP{}, err
	}

	// Canonical core order for stable output.
	sort.Slice(best.Cores[:], func(i, j int) bool {
		return best.Cores[i].PeakW < best.Cores[j].PeakW
	})
	return best, nil
}

// hillClimb climbs seed by single-slot replacements from pool until no
// replacement improves the score by more than 1e-12, for at most 12 rounds.
// The pool is a parameter (not a captured variable) so the polish pass can
// widen it for one call without mutating shared state. MP trials pass the
// incremental filter (mpTrials) before scoreMP decides them.
func hillClimb(ctx context.Context, si *suiteIndex, spec SearchSpec, seed CMP, pool []*Candidate) CMP {
	st := spec.Objective.SingleThread()
	var mp *mpTrials
	if !st {
		mp = newMPTrials(si, pool, spec.Objective == ObjMPEDP)
	}
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
				if c == cur.Cores[slot] {
					continue // the trial is cur itself, never an improvement
				}
				trial := cur.Cores
				trial[slot] = c
				if !feasible(&trial, spec.Budget, st) {
					continue
				}
				if mp != nil && mp.rejects(i, best.Score) {
					continue
				}
				s := si.score(&trial, spec.Objective)
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

package main

import (
	"context"
	"fmt"
	"math/rand"

	"compisa/internal/explore"
)

// searchSpec is one measured multicore search.
type searchSpec struct {
	obj    explore.Objective
	budget explore.Budget
}

func (s searchSpec) objName() string {
	if s.obj == explore.ObjMPEDP {
		return "mp-edp"
	}
	return "mp-throughput"
}

func (s searchSpec) key() string { return s.objName() + "|" + s.budget.String() }

// mpSearches are the eight composite-full searches of the mp-search
// workload: both multi-programmed objectives at two power and two area
// budgets, the Figure 5/6 sweep points.
func mpSearches() []searchSpec {
	var out []searchSpec
	for _, obj := range []explore.Objective{explore.ObjMPThroughput, explore.ObjMPEDP} {
		for _, b := range []explore.Budget{{PeakW: 20}, {PeakW: 40}, {AreaMM2: 48}, {AreaMM2: 64}} {
			out = append(out, searchSpec{obj, b})
		}
	}
	return out
}

// seededOrder returns the indices 0..n-1 in the seed's order.
func seededOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// runMPSearch measures multicore search alone. Set-up profiles and scores
// the composite-full candidate set cold; the measured phase runs the eight
// searches through the package-level explore.Search, which bypasses the
// Searcher's frontier cache, so no compile, execution or profiling runs
// while the clock is on.
func runMPSearch(r *run) {
	ctx := context.Background()
	var db *explore.DB
	var cands []*explore.Candidate
	setupS := timeSetups(2, func() {
		db = explore.NewDB()
		s, err := explore.NewSearcher(ctx, db)
		if err == nil {
			cands, err = s.Candidates(ctx, explore.OrgCompositeFull)
		}
		if err != nil {
			r.fail(1, "mp-search set-up: %v", err)
		}
	})
	if cands == nil {
		return
	}
	if sn := db.StatsSnapshot(); sn.Quarantines != 0 || sn.DegradedRegions != 0 {
		r.fail(1, "mp-search set-up degraded: %d quarantines, %d degraded regions", sn.Quarantines, sn.DegradedRegions)
	}
	specs := mpSearches()
	order := seededOrder(r.seed, len(specs))
	if r.update {
		r.refs.MPSearch = map[string]cmpRef{}
	}
	searchPass := func(tr *tracer) pass {
		return timePass(func() int {
			for _, i := range order {
				sp := specs[i]
				r.attempted++
				id := tr.begin("explore.search", 0, int64(i), map[string]any{
					"objective": sp.objName(), "budget": sp.budget.String()})
				cmp, err := explore.Search(ctx, explore.SearchSpec{Candidates: cands, Budget: sp.budget, Objective: sp.obj}, db.Regions)
				tr.end(id)
				if err != nil {
					r.fail(1, "search %s: %v", sp.key(), err)
					continue
				}
				r.checkCMP(sp.key(), cmp)
			}
			return len(order) * len(cands)
		})
	}
	ps := r.repeatPasses(1, func() pass { return searchPass(nil) })
	if !r.trace {
		r.reportPasses(setupS, ps)
		return
	}
	traced := searchPass(r.tr)
	r.evalLayers(db, traced.wall, traced.cpu)
	r.reportTrace("mp-search", traced.wall, ps[0].wall)
	search := layers(r.tr.snapshot())["explore.search"].total
	r.setLayer("explore.search_share", search.Seconds()/traced.wall.Seconds(), "ratio")
}

// checkCMP compares a chosen CMP with its reference (or records it).
func (r *run) checkCMP(key string, cmp explore.CMP) {
	got := cmpRef{Score: bits(cmp.Score)}
	for _, c := range cmp.Cores {
		got.Cores = append(got.Cores, c.DP.CacheKey())
	}
	if r.update {
		r.refs.MPSearch[key] = got
		return
	}
	want, ok := r.refs.MPSearch[key]
	if !ok || fmt.Sprint(want) != fmt.Sprint(got) {
		r.fail(1, "search %s chose %v score %s, reference %v score %s", key, got.Cores, got.Score, want.Cores, want.Score)
	}
}

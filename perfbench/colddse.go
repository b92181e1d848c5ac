package main

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"compisa/internal/check"
	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/eval"
	"compisa/internal/explore"
	"compisa/internal/ir"
	"compisa/internal/mem"
	"compisa/internal/perfmodel"
	"compisa/internal/power"
	"compisa/internal/workload"
)

var orgNames = map[explore.Organization]string{
	explore.OrgHomogeneous:     "homogeneous",
	explore.OrgSingleISAHetero: "single-isa-hetero",
	explore.OrgCompositeFixed:  "composite-fixed",
	explore.OrgHeteroVendor:    "hetero-vendor",
	explore.OrgCompositeFull:   "composite-full",
}

// runColdDSE measures compose-explore's cold start: on a fresh DB, build
// the Searcher (reference metrics) and the candidate sets of all five
// organisations, profiling every (region, ISA) pair and scoring every
// design point. No search runs.
func runColdDSE(r *run) {
	ctx := context.Background()
	orgs := explore.Organizations()
	order := seededOrder(r.seed, len(orgs))
	var setups []float64
	var db *explore.DB
	dsePass := func(tr *tracer) pass {
		setups = append(setups, timeSetups(101, func() { db = explore.NewDB() }))
		got := make(map[explore.Organization][]*explore.Candidate)
		p := timePass(func() int {
			id := tr.begin("explore.new_searcher", 0, 0, nil)
			s, err := explore.NewSearcher(ctx, db)
			tr.end(id)
			if err != nil {
				r.fail(1, "cold-dse NewSearcher: %v", err)
				return 0
			}
			for _, i := range order {
				id := tr.begin("explore.candidates", 0, int64(i), map[string]any{"organisation": orgNames[orgs[i]]})
				cs, err := s.Candidates(ctx, orgs[i])
				tr.end(id)
				if err != nil {
					r.fail(1, "cold-dse Candidates(%s): %v", orgNames[orgs[i]], err)
				}
				got[orgs[i]] = cs
			}
			return db.CachedCandidates()
		})
		r.checkDSE(db, got)
		return p
	}
	ps := r.repeatPasses(4, func() pass { return dsePass(nil) })
	if !r.trace {
		r.reportPasses(median(setups), ps)
		return
	}
	traced := dsePass(r.tr)
	r.evalLayers(db, traced.wall, traced.cpu)
	r.driveLayers(db)
	r.reportTrace("cold-dse", traced.wall, ps[0].wall)
}

// checkDSE compares each organisation's candidate digest and the total
// simulated instruction count with the references (or records them).
func (r *run) checkDSE(db *explore.DB, got map[explore.Organization][]*explore.Candidate) {
	var instrs int64
	for _, ps := range db.Export().Profiles {
		for _, p := range ps {
			if p != nil {
				instrs += p.Instrs
			}
		}
	}
	ref := &r.refs.ColdDSE
	if r.update {
		ref.Orgs, ref.SimInstrs = map[string]string{}, instrs
	}
	if instrs != ref.SimInstrs {
		r.fail(1, "cold-dse simulated %d instructions, reference %d", instrs, ref.SimInstrs)
	}
	for o, cs := range got {
		r.attempted += int64(len(cs))
		for _, c := range cs {
			for _, d := range c.Degraded {
				if d {
					r.fail(1, "cold-dse %s degraded", c.DP)
					break
				}
			}
		}
		d := candidatesDigest(cs)
		if r.update {
			ref.Orgs[orgNames[o]] = d
		} else if d != ref.Orgs[orgNames[o]] {
			r.fail(int64(len(cs)), "cold-dse %s digest %s, reference %s", orgNames[o], d, ref.Orgs[orgNames[o]])
		}
	}
}

// callTimer accumulates the count and total time of a call too fine-grained
// to record as one span per call.
type callTimer struct{ n, ns atomic.Int64 }

func (c *callTimer) since(t0 time.Time) { c.n.Add(1); c.ns.Add(int64(time.Since(t0))) }

func (c *callTimer) meanUS() float64 {
	if c.n.Load() == 0 {
		return 0
	}
	return float64(c.ns.Load()) / float64(c.n.Load()) / 1e3
}

// driveLayers re-runs the cold DSE's per-pair pipeline layer by layer on
// at most GOMAXPROCS workers — build, compile, analyze, predecode, bare
// execution, profiled execution, then scoring every configuration — with a
// span around each public call. Every profile must match the one the
// program's own pipeline produced in db, and every (cycles, energy) pair
// the candidate it cached.
func (r *run) driveLayers(db *explore.DB) {
	st := db.Export()
	cands := make(map[string]*eval.Candidate, len(st.Candidates))
	for _, c := range st.Candidates {
		cands[c.DP.CacheKey()] = c
	}
	keys := make([]string, 0, len(st.Profiles))
	for k := range st.Profiles {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type job struct {
		choice eval.ISAChoice
		ri     int
		want   *cpu.Profile
	}
	var jobs []job
	for _, k := range keys {
		choice, ok := eval.ChoiceByKey(k)
		if !ok {
			r.fail(1, "cold-dse: profiled ISA %q has no choice", k)
			continue
		}
		for ri, p := range st.Profiles[k] {
			jobs = append(jobs, job{choice, ri, p})
		}
	}
	cfgs := explore.Configs()
	var scorer, cycles, energy callTimer
	var instrs, profileInstrs atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				j := jobs[i]
				reg := db.Regions[j.ri]
				bare, profiled, ok := r.drivePair(int64(i), reg, j.choice, j.want)
				if !ok {
					continue
				}
				instrs.Add(bare)
				profileInstrs.Add(profiled)
				r.scorePair(int64(i), j.ri, j.choice, j.want, cfgs, cands, &scorer, &cycles, &energy)
			}
		}()
	}
	wg.Wait()
	ls := layers(r.tr.snapshot())
	prof, exec, pre := ls["cpu.profile"].total, ls["cpu.exec"].total, ls["cpu.predecode"].total
	r.setLayer("cpu.consume_self_ms", ms(prof-exec-pre), "ms")
	r.setLayer("cpu.profile_minstr_per_s", float64(profileInstrs.Load())/prof.Seconds()/1e6, "Minstr/s")
	r.setLayer("cpu.exec_minstr_per_s", float64(instrs.Load())/exec.Seconds()/1e6, "Minstr/s")
	r.setLayer("cpu.sim_instrs", float64(profileInstrs.Load()), "count")
	r.setLayer("perfmodel.scorer_us", scorer.meanUS(), "us")
	r.setLayer("perfmodel.cycles_us", cycles.meanUS(), "us")
	r.setLayer("power.energy_us", energy.meanUS(), "us")
	if profileInstrs.Load() != r.refs.ColdDSE.SimInstrs {
		r.fail(1, "cold-dse traced drive simulated %d instructions, reference %d", profileInstrs.Load(), r.refs.ColdDSE.SimInstrs)
	}
}

// drivePair runs one (region, ISA) pair through the profiling layers and
// returns the instructions its bare and its profiled execution retired.
func (r *run) drivePair(req int64, reg workload.Region, c eval.ISAChoice, want *cpu.Profile) (bare, profiled int64, ok bool) {
	tr := r.tr
	root := tr.begin("pair", 0, req, map[string]any{"region": reg.Name, "isa": c.Key()})
	defer tr.end(root)
	step := func(name string, f func() error) bool {
		id := tr.begin(name, root, req, nil)
		err := f()
		tr.end(id)
		if err != nil {
			r.fail(1, "cold-dse %s on %s/%s: %v", name, reg.Name, c.Key(), err)
		}
		return err == nil
	}
	var (
		f    *ir.Func
		m    *mem.Memory
		prog *code.Program
		pd   *cpu.Predecoded
		res  cpu.ExecResult
		got  *cpu.Profile
	)
	opts := cpu.RunOptions{MaxInstrs: eval.MaxRegionInstrs}
	ok = step("workload.build", func() (err error) {
		f, m, err = reg.Build(c.FS.Width)
		return err
	}) && step("compiler.compile", func() (err error) {
		// As the evaluation pipeline does: its own verification stage
		// replaces the compiler's gate, and vendors with an encoding
		// backend compile through it.
		copts := compiler.Options{Verify: compiler.VerifyOff}
		if c.Vendor != nil {
			copts.Target = c.Vendor.Target
		}
		prog, err = compiler.Compile(f, c.FS, copts)
		if err == nil {
			prog.Name = reg.Name
		}
		return err
	}) && step("check.analyze", func() error {
		return check.Analyze(prog).Err()
	})
	if !ok {
		return 0, 0, false
	}
	fresh := m.Clone()
	ok = step("cpu.predecode", func() error {
		pd = cpu.Predecode(prog)
		return nil
	}) && step("cpu.exec", func() (err error) {
		res, err = cpu.RunPredecoded(pd, cpu.NewState(fresh), opts, nil)
		return err
	}) && step("cpu.profile", func() (err error) {
		got, _, err = cpu.CollectProfileOpts(prog, m, opts)
		return err
	})
	if !ok {
		return 0, 0, false
	}
	if !sameProfile(got, want, c) {
		r.fail(1, "cold-dse profile of %s/%s differs from the pipeline's", reg.Name, c.Key())
	}
	return res.Instrs, got.Instrs, true
}

// sameProfile compares a profile collected here with the pipeline's. The
// pipeline scales a backend-less vendor's code-side fields analytically,
// so for those only the executed work must match.
func sameProfile(got, want *cpu.Profile, c eval.ISAChoice) bool {
	if c.Vendor != nil && !c.Vendor.HasBackend() {
		return got.Instrs == want.Instrs && got.Uops == want.Uops
	}
	a, errA := got.MarshalBinary()
	b, errB := want.MarshalBinary()
	return errA == nil && errB == nil && bytes.Equal(a, b)
}

// scorePair scores every configuration on the pipeline's profile of one
// pair and checks each result against the candidate the pipeline cached.
// Per-call times are aggregated: a span per call would outweigh the call.
func (r *run) scorePair(req int64, ri int, c eval.ISAChoice, p *cpu.Profile, cfgs []cpu.CoreConfig,
	cands map[string]*eval.Candidate, scorer, cycles, energy *callTimer) {
	id := r.tr.begin("score", 0, req, map[string]any{"region": ri, "isa": c.Key()})
	defer r.tr.end(id)
	t0 := time.Now()
	sc, err := perfmodel.NewScorer(p)
	scorer.since(t0)
	if err != nil {
		r.fail(int64(len(cfgs)), "cold-dse NewScorer %d/%s: %v", ri, c.Key(), err)
		return
	}
	traits := c.Traits()
	mismatches := int64(0)
	for _, cfg := range cfgs {
		t0 := time.Now()
		perf, err := sc.Cycles(cfg)
		cycles.since(t0)
		if err != nil {
			mismatches++
			continue
		}
		t0 = time.Now()
		en := power.Energy(traits, cfg, p, perf)
		energy.since(t0)
		want := cands[eval.DesignPoint{ISA: c, Cfg: cfg}.CacheKey()]
		if want == nil || want.M[ri].Cycles != perf.Cycles || want.M[ri].Energy != en.Total {
			mismatches++
		}
	}
	if mismatches > 0 {
		r.fail(mismatches, "cold-dse scoring of region %d on %s: %d configurations differ from the pipeline's", ri, c.Key(), mismatches)
	}
}

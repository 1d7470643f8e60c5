package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"semicont"
	"semicont/internal/core"
	"semicont/internal/stats"
	"semicont/internal/sweep"
)

// measurePerLayer reports the per-layer metrics. It makes a reference
// untraced pass (Go runtime counters), a CPU-profiled untraced pass
// (layer shares), a traced pass (spans and counts) that must reproduce
// the reference results exactly, and for audited workloads an
// unaudited pass (audit overhead).
func measurePerLayer(w *workloadSpec, o options, scs []semicont.Scenario, man manifest, t *tally) (map[string]metric, error) {
	pool := sweep.New(poolWorkers)
	ms := map[string]metric{}
	set := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	ref, err := runPublic(w, scs, pool)
	refWall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	set("go.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), "MB")
	set("go.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	t.checkPass("reference", w, scs, ref, err)
	if err == nil {
		if err := t.checkPinned(w, o, fingerprintOf(ref)); err != nil {
			return nil, err
		}
	}
	// A second pass's results must equal the reference's exactly.
	same := func(label string, got []*semicont.Result) {
		for i := range got {
			if ref == nil || !sameResult(got[i], ref[i]) {
				t.fail(1, "%s run %d differs from the untraced reference", label, i)
			}
		}
	}

	runtime.GC()
	var prof bytes.Buffer
	// A higher rate than pprof's 100 Hz default: set first, it survives
	// StartCPUProfile (which prints that it cannot change a running
	// rate), and the shares are CPU-time ratios, so the profile's
	// recorded period does not matter.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	profiled, err := runPublic(w, scs, pool)
	pprof.StopCPUProfile()
	if t.checkPass("profiled", w, scs, profiled, err) {
		same("profiled", profiled)
	}
	shares, samples, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range profLayers {
		set("prof.share."+l, shares[l], "ratio")
	}
	set("prof.samples", float64(samples), "count")

	runtime.GC()
	p, err := runTraced(w, scs, pool)
	if t.checkPass("traced", w, scs, p.results, err) {
		same("traced", p.results)
	}
	tracedMetrics(p, ref, set)
	set("trace.wall_s", float64(p.wall)/1e9, "s")
	set("trace.overhead_x", float64(p.wall)/1e9/refWall, "x")

	overhead := 1.0
	if scs[0].Audit {
		bare := slices.Clone(scs)
		for i := range bare {
			bare[i].Audit = false
		}
		var walls []float64
		for range 3 {
			runtime.GC()
			t0 := time.Now()
			res, err := runPublic(w, bare, pool)
			walls = append(walls, time.Since(t0).Seconds())
			t.checkPass("unaudited", w, bare, res, err)
		}
		overhead = refWall / median(walls)
	}
	set("audit.overhead_x", overhead, "x")
	set("failed_frac", t.failedFrac(), "ratio")

	if err := writeSpans(o, man, p); err != nil {
		return nil, err
	}
	return ms, nil
}

// profileHz is the CPU profile's sampling rate.
const profileHz = 500

// profLayers are the layers CPU samples fold into (see prof.go).
var profLayers = []string{
	"queue", "allocate", "wake", "select", "plan", "edge",
	"audit", "stats", "workload", "setup", "gc", "other",
}

// tracedMetrics derives the span- and count-based metrics of a traced
// pass. ref supplies the rejection and arrival totals the ratios need.
func tracedMetrics(p *tracedPass, ref []*semicont.Result, set func(string, float64, string)) {
	var sum tracer
	setup := map[string]int64{}
	var hist [2]stats.Sketch
	var uncovered, busy int64
	for i, t := range p.tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			setup[s.Name] += s.End - s.Start
		}
		for k := range numKinds {
			sum.events[k] += t.events[k]
			sum.stepSelf[k] += t.stepSelf[k]
		}
		hist[0].Merge(&t.stepHist[0])
		hist[1].Merge(&t.stepHist[1])
		sum.covered += t.covered
		sum.nextNs += t.nextNs
		sum.nexts += t.nexts
		sum.obsNs += t.obsNs
		sum.obs += t.obs
		sum.auditNs += t.auditNs
		sum.feedPasses += t.feedPasses
		sum.grants += t.grants
		sum.admissions += t.admissions
		sum.viaDRM += t.viaDRM
		sum.migrations += t.migrations
		sum.edgeServes += t.edgeServes
		sum.batched += t.batched
		if p.jobs != nil {
			job := p.jobs[i].End - p.jobs[i].Start
			busy += job
			uncovered += job - t.covered
		}
	}
	if p.jobs == nil {
		busy = p.wall
		uncovered = p.wall - sum.covered
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	set("catalog.generate_s", sec(setup["catalog.generate"]), "s")
	set("placement.build_s", sec(setup["placement.build"]), "s")
	set("workload.new_s", sec(setup["workload.new"]), "s")
	set("core.reset_s", sec(setup["core.reset"]), "s")
	set("faults.compile_s", sec(setup["faults.compile"]), "s")
	set("workload.next_s", sec(sum.nextNs), "s")
	set("workload.arrivals", float64(sum.nexts), "count")
	for k := range numKinds {
		name := core.AuditEventKind(k).String()
		set("core.events."+name, float64(sum.events[k]), "count")
		set("core.step_s."+name, sec(sum.stepSelf[k]), "s")
	}
	for i, name := range []string{"arrival", "wake"} {
		set("core.step_us."+name+".p50", hist[i].Quantile(0.5)/1e3, "us")
		set("core.step_us."+name+".p99", hist[i].Quantile(0.99)/1e3, "us")
		set("core.step_us."+name+".n", float64(hist[i].N()), "count")
	}

	var arrivals, rejected, audited int64
	for _, r := range ref {
		if r != nil {
			arrivals += r.Arrivals
			rejected += r.Rejected
			audited += r.AuditedEvents
		}
	}
	set("core.alloc.feed_passes", float64(sum.feedPasses), "count")
	set("core.alloc.grants_per_pass", ratio(sum.grants, sum.feedPasses), "count")
	set("core.admit.admissions", float64(sum.admissions), "count")
	set("core.admit.via_drm", float64(sum.viaDRM), "count")
	set("core.plan.migrations", float64(sum.migrations), "count")
	set("core.plan.rescue_ratio", ratio(sum.viaDRM, sum.viaDRM+rejected), "ratio")
	set("edge.hit_ratio", ratio(sum.edgeServes, arrivals), "ratio")
	set("edge.batched_joins", float64(sum.batched), "count")
	set("audit.tap_s", sec(sum.auditNs), "s")
	set("audit.events", float64(audited), "count")
	set("stats.observations", float64(sum.obs), "count")
	set("stats.observe_s", sec(sum.obsNs), "s")
	set("trace.unattributed_frac", ratio(uncovered, busy), "ratio")

	var jobMs stats.Sketch
	for _, j := range p.jobs {
		jobMs.Add(float64(j.End-j.Start) / 1e6)
	}
	set("sweep.jobs", float64(len(p.jobs)), "count")
	set("sweep.job_ms.p50", jobMs.Quantile(0.5), "ms")
	set("sweep.job_ms.p99", jobMs.Quantile(0.99), "ms")
	busyFrac := 0.0
	if len(p.jobs) > 0 {
		busyFrac = float64(busy) / (float64(p.wall) * poolWorkers)
	}
	set("sweep.busy_frac", busyFrac, "ratio")
}

// writeSpans writes the traced pass's spans (every top-level call, the Step
// loop as one span per run, and every sweep job) with the run's manifest.
func writeSpans(o options, man manifest, p *tracedPass) error {
	var spans []span
	for _, t := range p.tracers {
		if t != nil {
			spans = append(spans, t.spans...)
		}
	}
	spans = append(spans, p.jobs...)
	for i := range spans {
		spans[i].Start -= p.start
		spans[i].End -= p.start
	}
	b, err := json.Marshal(struct {
		Manifest manifest `json:"manifest"`
		WallNs   int64    `json:"wall_ns"`
		Spans    []span   `json:"spans"`
	}{man, p.wall, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.json", man.Workload, man.Seed))
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"semicont"
	"semicont/internal/audit"
	"semicont/internal/catalog"
	"semicont/internal/core"
	"semicont/internal/faults"
	"semicont/internal/placement"
	"semicont/internal/rng"
	"semicont/internal/stats"
	"semicont/internal/sweep"
	"semicont/internal/workload"
)

// The seed-stream labels semicont.Run derives its random streams from
// (run.go). A drift shows up as a traced run that no longer reproduces
// the untraced result.
const (
	seedCatalog uint64 = iota + 1
	seedPlacement
	seedArrivals
	seedClients
	seedInteract
	seedFaults
	seedSelector
)

// neverSample is an audit sampling interval no run reaches: the
// count-only tap sees every BeginEvent but the engine never builds a
// cluster snapshot for it.
const neverSample = math.MaxInt64

const numKinds = int(core.AuditBrownoutEnd) + 1

var epoch = time.Now()

// nowNs reads the monotonic clock (time.Since's fast path reads nothing
// else).
func nowNs() int64 { return int64(time.Since(epoch)) }

// span is one recorded call into a layer.
type span struct {
	Name  string `json:"name"`
	Run   int    `json:"run"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer records the spans and counts of one traced run. It belongs to
// the goroutine running that run.
type tracer struct {
	run   int
	spans []span // top-level calls; the Step loop is one span
	// covered is the time inside top-level spans.
	covered int64
	// child accumulates time in nested spans (arrival source,
	// accumulators, auditor) so a Step's self time can exclude it.
	child int64

	kind     core.AuditEventKind // of the Step in progress, from BeginEvent
	events   [numKinds]int64
	stepSelf [numKinds]int64
	// Whole Step durations in ns of arrival and wake events, in the
	// simulator's own quantile sketch (relative error ≤ 1/64).
	stepHist [2]stats.Sketch

	nextNs, nexts int64
	obsNs, obs    int64
	auditNs       int64

	feedPasses, grants  int64
	admissions, viaDRM  int64
	migrations          int64
	edgeServes, batched int64
}

// call runs f as a top-level span.
func (t *tracer) call(name string, f func() error) error {
	s := nowNs()
	err := f()
	e := nowNs()
	t.spans = append(t.spans, span{name, t.run, s, e})
	t.covered += e - s
	return err
}

// nested closes a span opened at s inside an enclosing one and returns
// its duration.
func (t *tracer) nested(s int64) int64 {
	d := nowNs() - s
	t.child += d
	return d
}

// steps runs Engine.Step until the event list drains, as one top-level
// span. Each Step is attributed to the event kind the audit tap saw,
// with the time from its start to the next Step's start: one clock read
// per Step, and the loop's own few instructions land in the Step.
func (t *tracer) steps(eng *core.Engine) {
	start := nowNs()
	prev := start
	for {
		c0 := t.child
		ok := eng.Step()
		now := nowNs()
		d := now - prev
		prev = now
		if !ok {
			break
		}
		k := t.kind
		t.events[k]++
		t.stepSelf[k] += d - (t.child - c0)
		switch k {
		case core.AuditArrival:
			t.stepHist[0].Add(float64(d))
		case core.AuditWake:
			t.stepHist[1].Add(float64(d))
		}
	}
	t.spans = append(t.spans, span{"core.step", t.run, start, prev})
	t.covered += prev - start
}

// timedSource times the workload generator behind core.ArrivalSource.
type timedSource struct {
	inner core.ArrivalSource
	t     *tracer
}

func (s *timedSource) Next() workload.Request {
	t0 := nowNs()
	r := s.inner.Next()
	s.t.nextNs += s.t.nested(t0)
	s.t.nexts++
	return r
}

// timedAcc times one observation channel's accumulator.
type timedAcc struct {
	inner stats.Accumulator
	t     *tracer
}

func (a *timedAcc) Observe(x float64) {
	t0 := nowNs()
	a.inner.Observe(x)
	a.t.obsNs += a.t.nested(t0)
	a.t.obs++
}

// tapProxy is the engine's audit tap in a traced run. It counts the
// taps the per-layer metrics need and, when inner is the real auditor,
// times every call into it.
type tapProxy struct {
	inner core.AuditTap // nil: count only
	t     *tracer
}

func (p *tapProxy) timed(t0 int64) { p.t.auditNs += p.t.nested(t0) }

func (p *tapProxy) Begin(b core.AuditBegin) error {
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.Begin(b)
}

func (p *tapProxy) BeginEvent(seq uint64, tm float64, kind core.AuditEventKind, server int32, req int64) error {
	p.t.kind = kind
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.BeginEvent(seq, tm, kind, server, req)
}

func (p *tapProxy) Event(rec core.AuditEventRecord) error {
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.Event(rec)
}

func (p *tapProxy) SpareOrder(tm float64, server int32, d core.SpareDiscipline, grants []core.SpareGrant) error {
	p.t.feedPasses++
	p.t.grants += int64(len(grants))
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.SpareOrder(tm, server, d, grants)
}

func (p *tapProxy) IntermittentOrder(tm float64, server int32, grants []core.IntermittentGrant) error {
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.IntermittentOrder(tm, server, grants)
}

func (p *tapProxy) Admission(tm float64, video int32, server int32, viaDRM, feasible bool) error {
	p.t.admissions++
	if viaDRM {
		p.t.viaDRM++
	}
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.Admission(tm, video, server, viaDRM, feasible)
}

func (p *tapProxy) Migration(tm float64, req int64, video int32, from, to int32, hops int32, rescue bool) error {
	p.t.migrations++
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.Migration(tm, req, video, from, to, hops, rescue)
}

func (p *tapProxy) Failure(tm float64, server int32, rescued, dropped, parked int) error {
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.Failure(tm, server, rescued, dropped, parked)
}

func (p *tapProxy) Recovery(tm float64, server int32, cold bool) error {
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.Recovery(tm, server, cold)
}

func (p *tapProxy) Brownout(tm float64, server int32, frac float64, rescued, dropped, parked int) error {
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.Brownout(tm, server, frac, rescued, dropped, parked)
}

func (p *tapProxy) BrownoutEnd(tm float64, server int32) error {
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.BrownoutEnd(tm, server)
}

func (p *tapProxy) Shed(tm float64, video int32, class int32, util, watermark float64) error {
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.Shed(tm, video, class, util, watermark)
}

func (p *tapProxy) EdgeServe(tm float64, video int32, prefixMb, catchupMb, sharedMb, suffixMb, sizeMb float64, batched bool) error {
	p.t.edgeServes++
	if batched {
		p.t.batched++
	}
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.EdgeServe(tm, video, prefixMb, catchupMb, sharedMb, suffixMb, sizeMb, batched)
}

func (p *tapProxy) Chain(tm float64, length int) error {
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.Chain(tm, length)
}

func (p *tapProxy) Replication(tm float64, video, from, to int32, size float64) error {
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.Replication(tm, video, from, to, size)
}

func (p *tapProxy) End(tm float64, m core.Metrics) error {
	if p.inner == nil {
		return nil
	}
	t0 := nowNs()
	defer p.timed(t0)
	return p.inner.End(tm, m)
}

// traceable rejects scenario fields the traced run does not mirror:
// it covers what the benchmark's workloads set, no more.
func traceable(sc semicont.Scenario) error {
	pol := sc.Policy
	switch {
	case sc.Observer != nil, sc.Shards != 0, sc.CheckInvariants, sc.FailAtHours > 0, !sc.Curve.IsZero():
		return fmt.Errorf("traced run: scenario uses observers, shards, invariant checks, a scripted failure or an arrival curve")
	case pol.Allocator != "", pol.Intermittent, len(pol.ClientMix) > 0, pol.Replicate,
		pol.PatchWindowSec > 0, pol.PauseProb > 0, len(pol.Classes) > 0, pol.ShedWatermark > 0:
		return fmt.Errorf("traced run: policy %q uses a field the traced run does not mirror", pol.Name)
	}
	return nil
}

// perServer expands a homogeneous per-server value unless override
// gives the vector.
func perServer(v float64, n int, override []float64) []float64 {
	if override != nil {
		return override
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func placementStrategy(p semicont.Policy) placement.Strategy {
	switch p.Placement {
	case semicont.PredictivePlacement:
		return placement.Predictive{}
	case semicont.PartialPredictivePlacement:
		return placement.PartialPredictive{TopFraction: p.PartialTopFraction, Extra: p.PartialExtra}
	default:
		return placement.Even{}
	}
}

// decodedOr returns v, or def when v is zero: the zero-means-default
// convention of LoadFactor, MaxHops, MaxChain and ReceiveCap.
func decodedOr[T int | float64](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

// tracedRun drives one scenario through the layers' public functions —
// catalog.Generate, placement.Build, workload.New, then
// core.Engine.Reset, Start and Step — the way semicont.Run does, with a
// span around each call.
func tracedRun(sc semicont.Scenario, eng *core.Engine, t *tracer) (*semicont.Result, error) {
	if err := traceable(sc); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sys, pol := sc.System, sc.Policy
	var cat *catalog.Catalog
	err := t.call("catalog.generate", func() (err error) {
		cat, err = catalog.Generate(catalog.Config{
			NumVideos: sys.NumVideos,
			MinLength: sys.MinVideoLength,
			MaxLength: sys.MaxVideoLength,
			ViewRate:  sys.ViewRate,
			Theta:     sc.Theta,
		}, rng.New(rng.DeriveSeed(sc.Seed, seedCatalog)))
		return err
	})
	if err != nil {
		return nil, err
	}
	bandwidths := perServer(sys.ServerBandwidth, sys.NumServers, sys.Bandwidths)
	var lay *placement.Layout
	err = t.call("placement.build", func() (err error) {
		lay, err = placement.Build(placementStrategy(pol), cat, sys.AvgCopies,
			perServer(sys.DiskCapacity, sys.NumServers, sys.Capacities),
			rng.New(rng.DeriveSeed(sc.Seed, seedPlacement)))
		return err
	})
	if err != nil {
		return nil, err
	}
	var gen *workload.Generator
	var rate float64
	err = t.call("workload.new", func() (err error) {
		rate, err = workload.CalibratedRate(cat, sys.TotalBandwidth(), decodedOr(sc.LoadFactor, 1))
		if err != nil {
			return err
		}
		gen, err = workload.New(cat, rate, rng.New(rng.DeriveSeed(sc.Seed, seedArrivals)))
		return err
	})
	if err != nil {
		return nil, err
	}

	bufMb := pol.StagingFrac * cat.AvgSize()
	cfg := core.Config{
		ServerBandwidth: bandwidths,
		ViewRate:        sys.ViewRate,
		BufferCapacity:  bufMb,
		Workahead:       pol.StagingFrac > 0,
		Spare:           core.SpareDiscipline(pol.Spare),
		Selector:        pol.Selector,
		Planner:         pol.Planner,
		SelectorSeed:    rng.DeriveSeed(sc.Seed, seedSelector),
		ResumeGuard:     pol.ResumeGuard,
		Migration: core.MigrationConfig{
			Enabled:     pol.Migration,
			MaxHops:     decodedOr(pol.MaxHops, 1),
			MaxChain:    decodedOr(pol.MaxChain, 1),
			SwitchDelay: pol.SwitchDelay,
		},
		Edge: core.EdgeConfig{
			Nodes:       pol.EdgeNodes,
			PrefixSec:   pol.EdgePrefixSec,
			CacheMb:     pol.EdgeCacheMb,
			CachePolicy: pol.EdgeCachePolicy,
			Batch:       pol.BatchPolicy,
			BatchWindow: pol.BatchWindowSec,
		},
		Interactivity: core.InteractivityConfig{Seed: rng.DeriveSeed(sc.Seed, seedInteract)},
		Retry: core.RetryConfig{
			Enabled:  pol.RetryQueue,
			MaxQueue: pol.RetryMaxQueue,
			Patience: pol.RetryPatienceSec,
			Backoff:  pol.RetryBackoffSec,
		},
		Degraded: core.DegradedConfig{
			Enabled:       pol.DegradedPlayback,
			RetryInterval: pol.DegradedRetrySec,
		},
		ClientSeed: rng.DeriveSeed(sc.Seed, seedClients),
	}
	if cfg.Workahead && pol.ReceiveCap >= 0 {
		cfg.ReceiveCap = decodedOr(pol.ReceiveCap, semicont.DefaultReceiveCap)
	}

	err = t.call("core.reset", func() error {
		return eng.Reset(cfg, cat, lay, &timedSource{inner: gen, t: t})
	})
	if err != nil {
		return nil, err
	}
	tap := &tapProxy{t: t}
	var aud *audit.Auditor
	eng.SetAuditTap(tap)
	if sc.Audit {
		aud = audit.New()
		tap.inner = aud
		eng.SetAuditSampling(sc.AuditSample)
	} else {
		eng.SetAuditSampling(neverSample)
	}
	var dist *semicont.DistStats
	if sc.Stats {
		dist = new(semicont.DistStats)
		for k, acc := range map[core.ObsKind]*stats.Sketch{
			core.ObsWait:         &dist.Wait,
			core.ObsRetrySojourn: &dist.RetrySojourn,
			core.ObsGlitch:       &dist.Glitch,
			core.ObsMigrations:   &dist.Migrations,
			core.ObsPark:         &dist.Park,
			core.ObsEdgeWait:     &dist.EdgeWait,
		} {
			eng.SetAccumulator(k, &timedAcc{inner: acc, t: t})
		}
	}
	if sc.Faults.Enabled() {
		err = t.call("faults.compile", func() error {
			sched, err := faults.Compile(sc.Faults, sys.NumServers, sc.HorizonHours,
				rng.DeriveSeed(sc.Seed, seedFaults))
			if err != nil {
				return err
			}
			for _, fe := range sched {
				switch {
				case fe.Brownout && fe.Recover:
					err = eng.ScheduleRestore(fe.At, fe.Server)
				case fe.Brownout:
					err = eng.ScheduleBrownout(fe.At, fe.Server, fe.Fraction)
				case fe.Recover:
					err = eng.ScheduleRecovery(fe.At, fe.Server, fe.Cold)
				default:
					err = eng.ScheduleFailure(fe.At, fe.Server)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	horizon := sc.HorizonHours * 3600
	if err := t.call("core.start", func() error { return eng.Start(horizon) }); err != nil {
		return nil, err
	}
	t.steps(eng)
	if err := eng.AuditErr(); err != nil {
		return nil, err
	}
	m := eng.Metrics()
	if err := t.call("audit.end", func() error { return tap.End(eng.Now(), *m) }); err != nil {
		return nil, err
	}

	res := &semicont.Result{
		Utilization:           m.Utilization(sys.TotalBandwidth(), horizon),
		RejectionRatio:        m.RejectionRatio(),
		Arrivals:              m.Arrivals,
		Accepted:              m.Accepted,
		Rejected:              m.Rejected,
		AcceptedMb:            m.AcceptedBytes,
		DeliveredMb:           m.DeliveredBytes,
		Completions:           m.Completions,
		Migrations:            m.Migrations,
		AdmissionsViaDRM:      m.AdmissionsViaDRM,
		MaxChainUsed:          m.MaxChainUsed,
		RescuedStreams:        m.RescuedStreams,
		DroppedStreams:        m.DroppedStreams,
		Failures:              m.Failures,
		Recoveries:            m.Recoveries,
		ColdRecoveries:        m.ColdRecoveries,
		Brownouts:             m.Brownouts,
		BrownoutRestores:      m.BrownoutRestores,
		SheddingActivated:     m.SheddingActivated,
		ClassArrivals:         m.ClassArrivals,
		ClassAccepted:         m.ClassAccepted,
		ClassRejected:         m.ClassRejected,
		ClassReneged:          m.ClassReneged,
		ClassShed:             m.ClassShed,
		RetriesQueued:         m.RetriesQueued,
		RetriedAdmissions:     m.RetriedAdmissions,
		Reneged:               m.Reneged,
		DegradedParked:        m.DegradedParked,
		DegradedResumed:       m.DegradedResumed,
		DegradedGlitches:      m.DegradedGlitches,
		GlitchedStreams:       m.GlitchedStreams,
		ReplicationsStarted:   m.ReplicationsStarted,
		ReplicationsCompleted: m.ReplicationsCompleted,
		ReplicationsAborted:   m.ReplicationsAborted,
		ReplicationsDeferred:  m.ReplicationsDeferred,
		ReplicatedMb:          m.ReplicatedMb,
		ViewerPauses:          m.ViewerPauses,
		PatchedJoins:          m.PatchedJoins,
		SharedMb:              m.SharedMb,
		EdgeHits:              m.EdgeHits,
		BatchedJoins:          m.BatchedJoins,
		EdgeMb:                m.EdgeMb,
		ClusterEgressMb:       m.ClusterEgressMb,
		ArrivalRate:           rate,
		TotalBandwidthMbps:    sys.TotalBandwidth(),
		HorizonSeconds:        horizon,
		StagingBufferMb:       bufMb,
		PlacedCopies:          lay.TotalCopies(),
		PlacementShortfall:    lay.Shortfall(),
		Dist:                  dist,
	}
	if m.AdmissionsViaDRM > 0 {
		res.MeanChainLength = float64(m.ChainLengthTotal) / float64(m.AdmissionsViaDRM)
	}
	if aud != nil {
		res.AuditedEvents = int64(aud.Events())
	}
	return res, nil
}

// tracedPass is one traced pass over a workload.
type tracedPass struct {
	results []*semicont.Result
	tracers []*tracer // one per run
	jobs    []span    // sweep jobs, trial workloads only
	start   int64
	wall    int64
}

// engines recycles engines across traced trials, as semicont.Run does.
var engines = sync.Pool{New: func() any { return new(core.Engine) }}

// runTraced makes one traced pass: single-run workloads run on the
// calling goroutine, trial workloads submit every trial to the pool as
// its own job, in the order SubmitTrials would.
func runTraced(w *workloadSpec, scs []semicont.Scenario, pool *sweep.Pool) (*tracedPass, error) {
	n := w.runs(scs)
	p := &tracedPass{results: make([]*semicont.Result, n), tracers: make([]*tracer, n)}
	p.start = nowNs()
	defer func() { p.wall = nowNs() - p.start }()
	if w.trials == 0 {
		eng := new(core.Engine)
		for i, sc := range scs {
			p.tracers[i] = &tracer{run: i}
			r, err := tracedRun(sc, eng, p.tracers[i])
			if err != nil {
				return p, fmt.Errorf("scenario %d: %w", i, err)
			}
			p.results[i] = r
		}
		return p, nil
	}
	p.jobs = make([]span, n)
	g := sweep.NewGrid[*semicont.Result](pool)
	for i, sc := range scs {
		g.Cell(w.trials, func(trial int) (*semicont.Result, error) {
			j := i*w.trials + trial
			t := &tracer{run: j}
			s := nowNs()
			eng := engines.Get().(*core.Engine)
			r, err := tracedRun(semicont.TrialScenario(sc, trial), eng, t)
			if err == nil {
				engines.Put(eng)
			}
			p.jobs[j] = span{"sweep.job", j, s, nowNs()}
			p.tracers[j] = t
			return r, err
		})
	}
	cells, err := g.Wait()
	if err != nil {
		return p, err
	}
	for i, cell := range cells {
		copy(p.results[i*w.trials:], cell)
	}
	return p, nil
}

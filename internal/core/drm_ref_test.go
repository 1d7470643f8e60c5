package core

import (
	"fmt"
	"testing"
)

// planDirectRef is the nested-loop direct planner that planDirect
// replaced, kept as its reference: for every migratable request, every
// holder of its video, re-checked per request, reading the request
// structs rather than the lane. It picks the pair whose target has the
// lowest load (ties: lowest request id, then lowest target id).
func (e *Engine) planDirectRef(s *server, now float64) (move, bool) {
	var best move
	bestLoad := -1
	for _, r := range s.active {
		if !e.migratableRef(r, now) {
			continue
		}
		for _, h := range e.holders(int(r.video)) {
			t := e.servers[h]
			if e.cfg.Intermittent {
				t.syncAll(now) // canAccept reads buffer levels
			}
			if !e.canAccept(t, now) || !e.eligibleTarget(r, t, now) {
				continue
			}
			if bestLoad == -1 || t.load() < bestLoad ||
				(t.load() == bestLoad && (r.id < best.r.id || (r.id == best.r.id && t.id < best.to.id))) {
				best = move{r: r, to: t}
				bestLoad = t.load()
			}
		}
	}
	return best, bestLoad >= 0
}

// migratableRef is the request-struct eligibility check migratableAt
// replaced (without the rescue bypass, which planDirect never uses).
func (e *Engine) migratableRef(r *request, now float64) bool {
	s := e.servers[r.server]
	if s.suspendedAt(int(r.slot), now) {
		return false
	}
	if r.isPatch || r.taps > 0 {
		return false
	}
	if mh := e.cfg.Migration.MaxHops; mh != UnlimitedHops && int(r.hops) >= mh {
		return false
	}
	if d := e.cfg.Migration.SwitchDelay; d > 0 {
		bview := e.cfg.ViewRate
		buf := s.ln.sent[r.slot] - r.viewedAt(now, bview)
		if buf < 0 {
			buf = 0
		}
		if buf < d*bview-dataEps {
			e.metrics.MigrationsRefusedByBuffer++
			return false
		}
	}
	return true
}

// plannerDirectRefCheck names refCheckPlanner in the planner registry.
const plannerDirectRefCheck = "test-direct-ref-check"

func init() {
	RegisterPlanner(plannerDirectRefCheck, func() MigrationPlanner { return &refCheckPlanner{} })
}

// refCheckPlanner plans exactly as chain-dfs does, and at every direct
// search it makes — the top-level one and each one a chain recursion
// makes on a candidate target — first runs planDirectRef and planDirect
// on the same state and records any difference in the move or in the
// MigrationsRefusedByBuffer delta. Both checks' counter effects are
// undone, so the run's metrics equal a chain-dfs run's.
type refCheckPlanner struct {
	checks, moves, refusals int
	nested                  int // checks made below the top level of a chain
	failedSeen, extraSeen   int // checks made with a failed server / a runtime replica
	err                     error
}

func (*refCheckPlanner) Name() string { return plannerDirectRefCheck }

func (p *refCheckPlanner) Plan(e *Engine, s *server, now float64, depth int, visited []bool) []move {
	return p.chain(e, s, now, depth, depth, visited)
}

// chain is planChain with the check in front of its direct search.
func (p *refCheckPlanner) chain(e *Engine, s *server, now float64, depthLeft, depth int, visited []bool) []move {
	if depthLeft <= 0 {
		return nil
	}
	s.syncAll(now)
	p.check(e, s, now, depthLeft < depth)
	if m, ok := e.planDirect(s, now); ok {
		return []move{m}
	}
	if depthLeft == 1 {
		return nil
	}
	for i, r := range s.active {
		if !e.migratableAt(s, i, now, false) {
			continue
		}
		for _, h := range e.holders(int(r.video)) {
			t := e.servers[h]
			if visited[t.id] || !e.eligibleTarget(r, t, now) {
				continue
			}
			visited[t.id] = true
			if sub := p.chain(e, t, now, depthLeft-1, depth, visited); sub != nil {
				return append(sub, move{r: r, to: t})
			}
		}
	}
	return nil
}

func (p *refCheckPlanner) check(e *Engine, s *server, now float64, nested bool) {
	before := e.metrics.MigrationsRefusedByBuffer
	want, wantOK := e.planDirectRef(s, now)
	wantDelta := e.metrics.MigrationsRefusedByBuffer - before
	e.metrics.MigrationsRefusedByBuffer = before
	got, gotOK := e.planDirect(s, now)
	gotDelta := e.metrics.MigrationsRefusedByBuffer - before
	e.metrics.MigrationsRefusedByBuffer = before

	p.checks++
	if wantOK {
		p.moves++
	}
	if wantDelta > 0 {
		p.refusals++
	}
	if nested {
		p.nested++
	}
	for _, x := range e.servers {
		if x.failed {
			p.failedSeen++
			break
		}
	}
	if len(e.extraHolders) > 0 {
		p.extraSeen++
	}
	if p.err == nil && (got != want || gotOK != wantOK || gotDelta != wantDelta) {
		p.err = fmt.Errorf("t=%g server %d: planDirect = (%v, %v, refused +%d), reference = (%v, %v, refused +%d)",
			now, s.id, got, gotOK, gotDelta, want, wantOK, wantDelta)
	}
}

// TestPlanDirectMatchesReference runs kitchen-sink and random-sim cells
// under refCheckPlanner, so every direct DRM search is checked against
// planDirectRef, and requires each run's metrics to equal the same run
// under the default planner. The migration settings are set per seed so
// the runs together cover unlimited hops, a switch delay that refuses
// moves, intermittent scheduling, chain length 2, failed servers and
// runtime replicas (extraHolders).
func TestPlanDirectMatchesReference(t *testing.T) {
	var total refCheckPlanner
	intermittentChecks := 0
	unlimitedMoves := 0
	runBoth := func(name string, build func(planner string) *Engine, fail int) {
		var metrics [2]Metrics
		var p *refCheckPlanner
		for i, planner := range []string{"", plannerDirectRefCheck} {
			e := build(planner)
			if fail >= 0 {
				if err := e.ScheduleFailure(1800, fail%len(e.servers)); err != nil {
					t.Fatal(err)
				}
			}
			m, err := e.Run(3600)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			metrics[i] = *m
			if planner != "" {
				p = e.planner().(*refCheckPlanner)
				if e.cfg.Intermittent {
					intermittentChecks += p.checks
				}
				if e.cfg.Migration.MaxHops == UnlimitedHops {
					unlimitedMoves += p.moves
				}
			}
		}
		if p.err != nil {
			t.Errorf("%s: %v", name, p.err)
		}
		if metrics[0] != metrics[1] {
			t.Errorf("%s: metrics under the checking planner diverge from chain-dfs:\n%+v\n%+v", name, metrics[0], metrics[1])
		}
		total.checks += p.checks
		total.moves += p.moves
		total.refusals += p.refusals
		total.nested += p.nested
		total.failedSeen += p.failedSeen
		total.extraSeen += p.extraSeen
	}

	for seed := uint64(1); seed <= 40; seed++ {
		cfg, cat, lay, mkSrc := kitchenSinkParts(t, seed)
		cfg.Migration = MigrationConfig{
			Enabled:  true,
			MaxHops:  []int{UnlimitedHops, 1, 2}[seed%3],
			MaxChain: 1 + int(seed/3%2),
		}
		if cfg.Workahead && seed%4 == 0 {
			cfg.Migration.SwitchDelay = 2
		}
		fail := -1
		if seed%2 == 1 {
			fail = int(seed)
		}
		runBoth(fmt.Sprintf("kitchen sink %d", seed), func(planner string) *Engine {
			c := cfg
			c.Planner = planner
			e, err := NewEngine(c, cat, lay, mkSrc())
			if err != nil {
				t.Fatal(err)
			}
			attachTestAuditor(t, e)
			return e
		}, fail)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		runBoth(fmt.Sprintf("random sim %d", seed), func(planner string) *Engine {
			e, _ := buildRandomSim(t, seed, seed%2 == 0, true)
			e.cfg.Planner = planner
			return e
		}, -1)
	}

	t.Logf("checks %d (moves %d, with refusals %d, nested %d, with a failed server %d, with runtime replicas %d; intermittent %d; unlimited-hops moves %d)",
		total.checks, total.moves, total.refusals, total.nested, total.failedSeen, total.extraSeen, intermittentChecks, unlimitedMoves)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"moves found", total.moves},
		{"switch-delay refusals", total.refusals},
		{"chain-2 nested searches", total.nested},
		{"searches with a failed server", total.failedSeen},
		{"searches with runtime replicas", total.extraSeen},
		{"intermittent searches", intermittentChecks},
		{"unlimited-hops moves", unlimitedMoves},
	} {
		if c.n == 0 {
			t.Errorf("coverage: no %s", c.what)
		}
	}
}

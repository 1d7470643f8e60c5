package core

// Built-in DRM planners. planDirect and planChain are the planning
// primitives (moved here from migration.go; migration.go keeps the move
// mechanism — eligibility, buffer gating, execution); chainDFSPlanner
// wraps them to reproduce the pre-seam plan shape bit-for-bit.

func init() {
	RegisterPlanner(PlannerChainDFS, func() MigrationPlanner { return chainDFSPlanner{} })
	RegisterPlanner(PlannerDirectOnly, func() MigrationPlanner { return directOnlyPlanner{} })
}

// chainDFSPlanner is the default: a direct move when one exists, else a
// DFS over candidate targets that frees one of them first.
type chainDFSPlanner struct{}

func (chainDFSPlanner) Name() string { return PlannerChainDFS }

func (chainDFSPlanner) Plan(e *Engine, s *server, now float64, depth int, visited []bool) []move {
	return e.planChain(s, now, depth, visited)
}

// directOnlyPlanner plans single moves only. It answers only depth 1 —
// iterative deepening would re-ask the same question at every deeper
// budget, and the answer cannot change.
type directOnlyPlanner struct{}

func (directOnlyPlanner) Name() string { return PlannerDirectOnly }

func (directOnlyPlanner) Plan(e *Engine, s *server, now float64, depth int, visited []bool) []move {
	if depth != 1 {
		return nil
	}
	s.syncAll(now) // migratableAt's switch-delay check reads buffer levels
	if m, ok := e.planDirect(s, now); ok {
		return []move{m}
	}
	return nil
}

// planDirect finds the best single migration that frees a slot on s:
// among s's migratable requests with a free-slot target, it picks the
// pair whose target has the lowest load (ties: lowest request id, then
// lowest target id), mirroring the least-loaded assignment rule.
//
// It scans the lane, and computes each video's best target once per
// call (directTarget) instead of re-checking the same holders for
// every stream of the video. For a fixed request the lowest (load,
// request id, target id) pair uses that request's lowest (load, target
// id) holder, which is its video's best target, so the winner over
// (slot, video target) pairs is the winner over all (request, holder)
// pairs.
func (e *Engine) planDirect(s *server, now float64) (move, bool) {
	if n := e.cat.Len(); len(e.drmTargets) < n {
		e.drmTargets = make([]drmTarget, n)
	}
	e.drmCall++
	var best move
	bestLoad := -1
	for i, v := range s.ln.video {
		if !e.migratableAt(s, i, now, false) {
			continue
		}
		t := e.directTarget(s, v, now)
		if t == nil || (bestLoad >= 0 && t.load() > bestLoad) {
			continue
		}
		if r := s.active[i]; bestLoad == -1 || t.load() < bestLoad || r.id < best.r.id {
			best = move{r: r, to: t}
			bestLoad = t.load()
		}
	}
	return best, bestLoad >= 0
}

// drmTarget is one video's slot in planDirect's per-video scratch: the
// best target server found for the video (-1 for none), valid while
// stamp equals the engine's planDirect call count. Stamping replaces a
// per-call clear.
type drmTarget struct {
	stamp  uint64
	server int32
}

// directTarget returns the best target for moving a stream of video v
// off s — the lowest-load, then lowest-id, holder other than s that can
// accept a stream — or nil. It is computed once per planDirect call.
func (e *Engine) directTarget(s *server, v int32, now float64) *server {
	slot := &e.drmTargets[v]
	if slot.stamp != e.drmCall {
		best, bestLoad := int32(-1), 0
		for _, h := range e.holders(int(v)) {
			t := e.servers[h]
			if e.cfg.Intermittent {
				t.syncAll(now) // canAccept reads buffer levels
			}
			// Every holder holds v, and canAccept rules out failed
			// servers: eligibleTarget reduces to t != s.
			if t == s || !e.canAccept(t, now) {
				continue
			}
			if best < 0 || t.load() < bestLoad || (t.load() == bestLoad && t.id < best) {
				best, bestLoad = t.id, t.load()
			}
		}
		slot.stamp, slot.server = e.drmCall, best
	}
	if slot.server < 0 {
		return nil
	}
	return e.servers[slot.server]
}

// planChain tries to free one slot on s using at most depthLeft
// migrations. It returns the moves in execution order (deepest first).
// visited marks servers already being freed higher up the chain, to
// prevent cycles.
func (e *Engine) planChain(s *server, now float64, depthLeft int, visited []bool) []move {
	if depthLeft <= 0 {
		return nil
	}
	// Bring fluid state up to date before reading buffers: migratableAt's
	// switch-delay check depends on each request's current buffer level.
	s.syncAll(now)
	if m, ok := e.planDirect(s, now); ok {
		return []move{m}
	}
	if depthLeft == 1 {
		return nil
	}
	// No direct target has room: try to free a slot on some candidate
	// target first, then move one of s's requests onto it.
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
			if sub := e.planChain(t, now, depthLeft-1, visited); sub != nil {
				return append(sub, move{r: r, to: t})
			}
			// Leave visited set: freeing t failed and cannot succeed
			// via another path within this chain either.
		}
	}
	return nil
}

package core

// Dynamic request migration (Section 3.1). When a request arrives and
// every server holding a replica of its video is full, the controller
// may migrate an active request off one of those servers to another
// server that holds a replica of *that* request's video, releasing a
// slot for the new arrival. The paper keeps the migration chain length
// at one (one migrated request per arrival) and studies hops-per-request
// limits of one and unlimited; bounded chain search (depth > 1) is
// supported as an ablation.
//
// This file is the move mechanism: which requests may move where, and
// how a planned chain is executed. Planning lives behind the
// MigrationPlanner seam (controller.go / controller_planners.go).

// move is one planned migration step.
type move struct {
	r  *request
	to *server
}

// eligibleTarget reports whether request r may be migrated to server t
// at time now. r must be synced to now.
func (e *Engine) eligibleTarget(r *request, t *server, now float64) bool {
	if t.failed || int(r.server) == int(t.id) {
		return false
	}
	if !e.holds(int(r.video), int(t.id)) {
		return false
	}
	return true
}

// migratableAt reports whether the stream in slot i of s may move at
// all (hops budget, not mid-switch, not pinned by patching, and — when
// switching takes time — enough buffered data to mask the blackout; a
// buffer refusal is counted in MigrationsRefusedByBuffer). rescue
// bypasses the hops budget: a stream on a failing server is moved if
// at all possible. s must be synced to now. It reads the lane only.
func (e *Engine) migratableAt(s *server, i int, now float64, rescue bool) bool {
	if s.suspendedAt(i, now) {
		return false
	}
	if s.ln.pinned[i] {
		// Patching pins streams to their server: the multicast tree
		// feeding the taps cannot move.
		return false
	}
	if !rescue {
		mh := e.cfg.Migration.MaxHops
		if mh != UnlimitedHops && int(s.ln.hops[i]) >= mh {
			return false
		}
	}
	if d := e.cfg.Migration.SwitchDelay; d > 0 {
		need := d * e.cfg.ViewRate
		if s.bufferOf(i, now, e.cfg.ViewRate) < need-dataEps {
			e.metrics.MigrationsRefusedByBuffer++
			return false
		}
	}
	return true
}

// executeMoves applies planned migrations in order. Sources and targets
// are synced and rescheduled exactly once each.
func (e *Engine) executeMoves(plan []move, now float64, rescue bool) {
	touched := e.touchedBuf[:0]
	mark := func(s *server) {
		for _, x := range touched {
			if x == s {
				return
			}
		}
		touched = append(touched, s)
	}
	for _, m := range plan {
		mark(e.servers[m.r.server])
		mark(m.to)
	}
	for _, s := range touched {
		s.syncAll(now)
	}
	for _, m := range plan {
		from := e.servers[m.r.server]
		from.detach(m.r)
		m.r.hops++ // before attach, which carries it into the lane
		m.to.attach(m.r)
		if d := e.cfg.Migration.SwitchDelay; d > 0 {
			m.to.setSuspend(m.r, now+d)
		}
		e.metrics.Migrations++
		if e.obs != nil {
			e.obs.OnMigrate(now, m.r.id, int(m.r.video), int(from.id), int(m.to.id), rescue)
		}
		if e.audit != nil {
			e.auditFail(e.audit.Migration(now, m.r.id, m.r.video, from.id, m.to.id, m.r.hops, rescue))
		}
	}
	for _, s := range touched {
		e.reschedule(s, now)
	}
	e.touchedBuf = touched
}

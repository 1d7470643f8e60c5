package core

import "math"

// Spare-bandwidth staging shared by the allocation policies: gathering
// the staging candidates of a server into the engine's reusable index,
// then feeding them in the discipline's order. The minimum-flow round
// gathers the candidates in its own pass over the lane (minFlowRates);
// the intermittent allocator, which runs its own round, gathers them
// here (gatherSpareCandidates). Both apply stageable and key each
// candidate by its clamped remaining volume, in slot order.
//
// The hot path never sorts. Feeding spare in (key, id) order only needs
// the fed *prefix* of that order — once the spare is exhausted every
// later candidate's grant is zero and its state untouched — and that
// prefix is short: a client absorbs up to b_receive − b_view, so one or
// two grants usually use up the spare. Index.Next takes it from one
// linear scan (heapifying only if the prefix runs long). Audited runs
// instead sort the full candidate list (the SpareOrder tap reports
// every would-be grant in feed order); the per-request rates are
// identical either way because Next yields exactly Sort's order, and
// the grant arithmetic is the same code.
//
// Every feed rewrites the wake key of each slot whose rate it raises
// (see wake.go): a raised rate moves both the finish and the
// buffer-full candidate earlier, so the rewrite only lowers the key
// and the lane's running min stays valid.

// gatherSpareCandidates fills e.cand with s's staging candidates at
// time t: unfinished (always true for active requests), not suspended,
// transmitting, and stageable. Each entry's key is the request's
// untransmitted volume — the EFTF/LFTF ordering quantity — and its
// position indexes s.active; the id is filled in by the ordered feed
// (candidateIDs).
func (e *Engine) gatherSpareCandidates(s *server, t float64, descending bool) {
	bview := e.cfg.ViewRate
	e.cand.Reset(descending)
	ln := &s.ln
	rateA := ln.rate
	suspA := ln.susp[:len(rateA)]
	pinnedA := ln.pinned[:len(rateA)]
	bufCapA := ln.bufCap[:len(rateA)]
	for i, rate := range rateA {
		if suspA[i] > t+timeEps || rate <= 0 || !stageable(pinnedA[i], bufCapA[i], s.bufferOf(i, t, bview)) {
			continue
		}
		e.cand.Add(s.remainingOf(i), 0, int32(i))
	}
}

// candidateIDs fills in the request ids of the gathered candidates,
// which break key ties in the feed order. The gathers leave them unset:
// this tight loop issues the ~20 request loads back to back, so their
// cache misses overlap, where loads spread over the gather's per-slot
// work each stalled on its own. The even split, order-free, never
// reads the ids.
func (e *Engine) candidateIDs(s *server) {
	ents := e.cand.All()
	for j := range ents {
		ents[j].ID = s.active[ents[j].Pos].id
	}
}

// spareGrantTo computes how much spare a candidate can absorb:
// min(avail, receive headroom), clamped at zero for saturated clients.
func spareGrantTo(rate, recvCap, avail float64) float64 {
	headroom := math.Inf(1)
	if recvCap > 0 {
		headroom = recvCap - rate
	}
	extra := headroom
	if extra > avail {
		extra = avail
	}
	if extra < 0 {
		extra = 0 // this client is saturated; try the next
	}
	return extra
}

// spreadSpare gathers s's staging candidates and hands them spare
// bandwidth under the configured discipline: the intermittent
// allocator's workahead. Requests must be synced to t and already hold
// their base rates.
func (e *Engine) spreadSpare(s *server, t float64, avail float64) {
	switch e.cfg.Spare {
	case EvenSplit:
		e.gatherSpareCandidates(s, t, false)
		e.feedSpareEven(s, t, avail)
	case LFTF:
		// Latest projected finish first: the adversarial opposite.
		e.gatherSpareCandidates(s, t, true)
		e.feedSpareOrdered(s, t, avail)
	default:
		// EFTF: earliest projected finish first; ties broken by request
		// id for determinism. DebugForceSpareMisorder inverts the order
		// (test-only sabotage the auditor must catch).
		e.gatherSpareCandidates(s, t, e.spareMisorder)
		e.feedSpareOrdered(s, t, avail)
	}
}

// feedSpareOrdered feeds spare to the gathered candidates in the
// index's order: ascending (descending when gathered so) remaining
// volume.
func (e *Engine) feedSpareOrdered(s *server, t float64, avail float64) {
	if e.cand.Len() == 0 {
		return
	}
	e.candidateIDs(s)
	if e.audit != nil {
		e.feedSpareAudited(s, t, avail)
		return
	}
	ln := &s.ln
	checked := false
	for avail > dataEps && e.cand.Len() > 0 {
		i := e.cand.Next().Pos
		if extra := spareGrantTo(ln.rate[i], s.active[i].recvCap, avail); extra > 0 {
			ln.rate[i] += extra
			avail -= extra
			ln.setWake(i, e.wakeKeyServing(s, int(i), t))
			continue
		}
		// A saturated client. When no remaining candidate can absorb
		// spare either (every client capped at b_view), the feed is
		// over: stop instead of selecting each of them in turn.
		if !checked {
			checked = true
			if !e.anyCanAbsorb(s, avail) {
				return
			}
		}
	}
}

// anyCanAbsorb reports whether any un-fed candidate in e.cand would be
// granted part of avail.
func (e *Engine) anyCanAbsorb(s *server, avail float64) bool {
	for _, ent := range e.cand.Rest() {
		if spareGrantTo(s.ln.rate[ent.Pos], s.active[ent.Pos].recvCap, avail) > 0 {
			return true
		}
	}
	return false
}

// feedSpareAudited is the instrumented ordered feed: every candidate's
// grant — including the zero grants after the spare runs out — is
// reported to the SpareOrder tap in feed order, which requires the full
// sort the hot path avoids.
func (e *Engine) feedSpareAudited(s *server, t float64, avail float64) {
	ln := &s.ln
	grants := e.spareGrantBuf[:0]
	for _, ent := range e.cand.Sort() {
		i := ent.Pos
		r := s.active[i]
		var extra float64
		if avail > dataEps {
			extra = spareGrantTo(ln.rate[i], r.recvCap, avail)
		}
		grants = append(grants, SpareGrant{
			Request: ent.ID, Remaining: ent.Key,
			RateBefore: ln.rate[i], Extra: extra, RecvCap: r.recvCap,
		})
		if extra > 0 {
			ln.rate[i] += extra
			avail -= extra
			ln.setWake(i, e.wakeKeyServing(s, int(i), t))
		}
	}
	e.spareGrantBuf = grants
	e.auditFail(e.audit.SpareOrder(t, s.id, e.cfg.Spare, grants))
}

// feedSpareEven water-fills spare equally across the gathered
// candidates, redistributing what saturated clients cannot absorb.
// Candidates are processed in active order (the discipline is
// order-free by design and emits no feed-order tap). A candidate can be
// fed across several rounds, so the wake keys are written once at the
// end, from the final rates — the same values a post-feed scan would
// have read.
func (e *Engine) feedSpareEven(s *server, t float64, avail float64) {
	if e.cand.Len() == 0 {
		return
	}
	ln := &s.ln
	// All() returns insertion order (nothing has been popped or sorted);
	// the survivor filter works on a separate scratch so it cannot
	// corrupt the index storage.
	remaining := append(e.evenBuf[:0], e.cand.All()...)
	e.evenBuf = remaining
	for avail > dataEps && len(remaining) > 0 {
		share := avail / float64(len(remaining))
		next := remaining[:0]
		for _, ent := range remaining {
			i := ent.Pos
			headroom := math.Inf(1)
			if recvCap := s.active[i].recvCap; recvCap > 0 {
				headroom = recvCap - ln.rate[i]
			}
			extra := share
			if extra >= headroom {
				extra = headroom
			} else {
				next = append(next, ent) // can absorb more next round
			}
			if extra > 0 {
				ln.rate[i] += extra
				avail -= extra
			}
		}
		if len(next) == len(remaining) {
			break // everyone took a full share; spare exhausted
		}
		remaining = next
	}
	for _, ent := range e.cand.All() {
		ln.setWake(ent.Pos, e.wakeKeyServing(s, int(ent.Pos), t))
	}
}

// allocateCopies feeds replica transfers from the spare bandwidth left
// after the minimum-flow guarantee and ahead of client staging: fixing
// placement is the more durable use of the spare. Each job is capped so
// replication cannot monopolize the workahead benefit. Each job's wake
// key for the round is written here (its projected completion).
func (e *Engine) allocateCopies(s *server, t float64, avail float64) float64 {
	if len(s.copies) == 0 {
		return avail
	}
	rateCap := e.copyRateCap()
	for _, c := range s.copies {
		r := rateCap
		if r > avail {
			r = avail
		}
		if r < 0 {
			r = 0
		}
		c.rate = r
		avail -= r
		if avail <= dataEps {
			avail = 0
			rateCap = 0
		}
		if r > 0 {
			c.wakeKey = t + (c.size-c.sent)/r
		} else {
			c.wakeKey = math.Inf(1)
		}
		s.ln.foldCopyKey(c.wakeKey)
	}
	return avail
}

// pausedFullAt reports whether slot i's viewer has paused with no
// buffer room left: transmission must stop or the client buffer would
// overflow (with no staging buffer at all, any pause stops the flow).
func (e *Engine) pausedFullAt(s *server, i int, t float64) bool {
	return s.ln.paused[i] && s.bufferOf(i, t, e.cfg.ViewRate) >= s.ln.bufCap[i]-dataEps
}

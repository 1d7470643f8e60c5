package core

import "math"

// Minimum-flow allocation (Sections 3.3 and Figure 2 of the paper):
// every unfinished, non-suspended request is guaranteed at least the
// view bandwidth b_view, so admitted playback can never glitch. The
// three minimum-flow policies (EFTF, LFTF, even-split) share this pass
// and differ only in how the leftover bandwidth is staged ahead — see
// their files and spare.go.

// minFlowRates assigns the minimum-flow guarantee on server s at time t
// and returns the spare bandwidth left over. All requests in s.active
// must be synced to t. It opens the server's wake round and writes
// every slot's key as it assigns the rate: a later spare feed rewrites
// the keys of the slots it raises (see wake.go). Under workahead it
// also gathers the staging candidates into e.cand, ordered descending
// when asked, with the predicate and key gatherSpareCandidates applies.
// It reads the lane only.
func (e *Engine) minFlowRates(s *server, t float64, descending bool) float64 {
	avail := s.bandwidth
	bview := e.cfg.ViewRate
	// Gather in this pass unless the server is full enough that spare
	// is left only if some slot does not transmit: a saturated server's
	// round then gathers nothing, and the rare spare from a suspended or
	// paused-full slot is gathered by a second pass below. Either way
	// e.cand ends up with the same entries in the same order.
	stage := e.cfg.Workahead && s.bandwidth-bview*float64(len(s.ln.rate)) > dataEps
	e.cand.Reset(descending)
	ln := &s.ln
	ln.beginRound()
	// The round touches every slot exactly once, so the min is tracked in
	// locals and committed wholesale instead of paying setWake's fold per
	// slot; the spare feeds that follow rewrite keys through setWake,
	// which keeps the committed min valid (a raise only lowers keys).
	// Reslicing to rate's length drops the per-element bounds checks.
	min, arg := math.Inf(1), wakeArgNone
	rateA := ln.rate
	suspA := ln.susp[:len(rateA)]
	wakeA := ln.wake[:len(rateA)]
	sentA := ln.sent[:len(rateA)]
	sizeA := ln.size[:len(rateA)]
	pausedA := ln.paused[:len(rateA)]
	bufCapA := ln.bufCap[:len(rateA)]
	pinnedA := ln.pinned[:len(rateA)]
	for i := range rateA {
		var k float64
		if suspA[i] > t+timeEps {
			// Mid-switch streams receive nothing until the blackout ends.
			rateA[i] = 0
			k = suspA[i]
		} else if pausedA[i] && s.bufferOf(i, t, bview) >= bufCapA[i]-dataEps {
			// A paused viewer with a full buffer has nowhere to put
			// data, so the minimum-flow guarantee is moot until it
			// resumes (an evResume event triggers reallocation).
			rateA[i] = 0
			k = math.Inf(1)
		} else {
			rateA[i] = bview
			avail -= bview
			// wakeKeyServing at rate = bview, manually unrolled: the call
			// exceeds the inline budget and this loop pays it per slot.
			// Identical operations in the same order — the keys must stay
			// bit-identical to wakeKeyServing's (TestWakeIndexMatchesScan
			// and the wake-exact audit rule pin the equivalence). At rate
			// b_view the buffer fills at fill = b_view − drain: exactly 0
			// for a playing viewer, which never passes fill > dataEps, and
			// exactly b_view for a paused one.
			sent := sentA[i]
			rem := sizeA[i] - sent
			if rem < 0 {
				rem = 0
			}
			k = t + rem/bview
			var buf float64 // read below only by a paused slot or the gather
			if pausedA[i] || stage {
				buf = sent - ln.viewedAt(i, t, bview)
				if buf < 0 {
					buf = 0
				}
			}
			if fill := bview; pausedA[i] && fill > dataEps && bufCapA[i] >= 0 {
				room := bufCapA[i] - buf
				if room < 0 {
					room = 0
				}
				if tb := t + room/fill; tb < k {
					k = tb
				}
			}
			// The slot transmits at b_view > 0 and is not suspended, so
			// it is a staging candidate exactly when stageable holds; its
			// key is the clamped remaining volume computed above (the id
			// is filled in by the ordered feed, see candidateIDs).
			if stage && stageable(pinnedA[i], bufCapA[i], buf) {
				e.cand.Add(rem, 0, int32(i))
			}
		}
		wakeA[i] = k
		if k < min {
			min, arg = k, int32(i)
		}
	}
	ln.wakeMin, ln.wakeArg = min, arg
	if e.cfg.Workahead && !stage && avail > dataEps {
		e.gatherSpareCandidates(s, t, descending)
	}
	return avail
}

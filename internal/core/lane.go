package core

import "math"

// lane is a server's structure-of-arrays data plane: the per-request
// fields the per-event passes read (rate, sent, last-sync, suspension
// deadline, object size, viewer state, staging buffer, pin flag,
// video, hops) and the stored wake keys, held in parallel slices
// indexed by request slot. The pointer slice server.active carries
// everything else (identity, client receive cap, class, park and
// glitch flags); the lane carries everything the per-event passes —
// syncAll, the allocation round, the DRM scan, the wake query —
// actually touch, so those passes stream contiguous arrays instead of
// chasing pointers across a 100+-byte struct.
//
// Ownership contract: while a request is attached the lane is the only
// authoritative copy of its fluid fields (rate, sent, last, susp); the
// request struct's carry* fields are a marshaling area valid only while
// detached (parked streams, the freelist). attach loads carry → lane;
// detach stores lane → carry and swap-removes the slot.
//
// The other columns mirror request fields, which stay authoritative:
// size, video and bufCap never change while attached, and each of the
// rest has exactly one attached-state write path, a server method that
// updates the request and its slot together — setPaused (the view
// columns), addTap (pinned), and for hops none at all: a move bumps
// hops between detach and attach, so attach carries it.
//
// Wake-index contract (see wake.go for the scheduling semantics): each
// slot stores the request's wake key — the earliest of its finish,
// buffer-full, and resume-guard candidates, computed by the allocation
// round that assigned its current rate; copy jobs store theirs on the
// copyJob. wakeMin/wakeArg maintain the min over all stored keys
// incrementally: beginRound resets them, setWake folds each write, and
// anything that removes or raises a key marks the index dirty so the
// next query lazily repairs it by rescanning the stored keys (compare
// only — the keys themselves are never recomputed outside a round,
// which is what keeps the incremental answer bit-identical to a
// from-scratch min over the same keys).
type lane struct {
	rate []float64 // current allocation, Mb/s
	sent []float64 // Mb transmitted, valid as of last
	last []float64 // time sent was last synced
	susp []float64 // suspension deadline (mid-switch blackout)
	size []float64 // object size mirror, immutable while attached
	wake []float64 // stored wake key (+Inf = no wake needed)

	// Mirrors of request fields (see the contract above).
	viewOff  []float64 // request.viewOffset
	viewSync []float64 // request.viewSyncT
	paused   []bool    // request.pausedView
	bufCap   []float64 // request.bufCap, immutable while attached
	pinned   []bool    // request.isPatch || request.taps > 0
	video    []int32   // request.video, immutable while attached
	hops     []int32   // request.hops

	wakeMin   float64 // min over wake ∪ copy keys, valid unless dirty
	wakeArg   int32   // slot of the min; wakeArgCopy for a copy job
	wakeDirty bool    // a key was removed or raised since the last fold
}

// wakeArg sentinel values. Slots are ≥ 0.
const (
	wakeArgNone = int32(-1) // no key folded yet (idle server)
	wakeArgCopy = int32(-2) // the min is a copy job's key
)

// reserve gives every column room for n slots. Columns are sized on a
// server's first attach, so appends only grow them past n.
func (ln *lane) reserve(n int) {
	ln.rate = make([]float64, 0, n)
	ln.sent = make([]float64, 0, n)
	ln.last = make([]float64, 0, n)
	ln.susp = make([]float64, 0, n)
	ln.size = make([]float64, 0, n)
	ln.wake = make([]float64, 0, n)
	ln.viewOff = make([]float64, 0, n)
	ln.viewSync = make([]float64, 0, n)
	ln.paused = make([]bool, 0, n)
	ln.bufCap = make([]float64, 0, n)
	ln.pinned = make([]bool, 0, n)
	ln.video = make([]int32, 0, n)
	ln.hops = make([]int32, 0, n)
}

// attach appends r's carried hot fields and mirrored fields as a new
// lane slot. The wake key starts at +Inf; the reschedule that follows
// every attach writes the real key (+Inf cannot lower the maintained
// min, so no invalidation is needed).
func (ln *lane) attach(r *request) {
	ln.rate = append(ln.rate, r.carryRate)
	ln.sent = append(ln.sent, r.carrySent)
	ln.last = append(ln.last, r.carryLast)
	ln.susp = append(ln.susp, r.carrySusp)
	ln.size = append(ln.size, r.size)
	ln.wake = append(ln.wake, math.Inf(1))
	ln.viewOff = append(ln.viewOff, r.viewOffset)
	ln.viewSync = append(ln.viewSync, r.viewSyncT)
	ln.paused = append(ln.paused, r.pausedView)
	ln.bufCap = append(ln.bufCap, r.bufCap)
	ln.pinned = append(ln.pinned, r.isPatch || r.taps > 0)
	ln.video = append(ln.video, r.video)
	ln.hops = append(ln.hops, r.hops)
}

// detach stores slot i back into r's carry fields and swap-removes the
// slot, mirroring server.detach's swap of the active slice. Removing a
// key can orphan the maintained min, so the index goes dirty.
func (ln *lane) detach(r *request, i, last int) {
	r.carryRate, r.carrySent, r.carryLast, r.carrySusp =
		ln.rate[i], ln.sent[i], ln.last[i], ln.susp[i]
	ln.rate[i] = ln.rate[last]
	ln.rate = ln.rate[:last]
	ln.sent[i] = ln.sent[last]
	ln.sent = ln.sent[:last]
	ln.last[i] = ln.last[last]
	ln.last = ln.last[:last]
	ln.susp[i] = ln.susp[last]
	ln.susp = ln.susp[:last]
	ln.size[i] = ln.size[last]
	ln.size = ln.size[:last]
	ln.wake[i] = ln.wake[last]
	ln.wake = ln.wake[:last]
	ln.viewOff[i] = ln.viewOff[last]
	ln.viewOff = ln.viewOff[:last]
	ln.viewSync[i] = ln.viewSync[last]
	ln.viewSync = ln.viewSync[:last]
	ln.paused[i] = ln.paused[last]
	ln.paused = ln.paused[:last]
	ln.bufCap[i] = ln.bufCap[last]
	ln.bufCap = ln.bufCap[:last]
	ln.pinned[i] = ln.pinned[last]
	ln.pinned = ln.pinned[:last]
	ln.video[i] = ln.video[last]
	ln.video = ln.video[:last]
	ln.hops[i] = ln.hops[last]
	ln.hops = ln.hops[:last]
	ln.wakeDirty = true
}

// viewedAt returns the data slot i's playback has consumed at time t:
// request.viewedAt on the mirrored view columns, the same operations in
// the same order, clamped to the lane's size mirror.
func (ln *lane) viewedAt(i int, t, bview float64) float64 {
	v := ln.viewOff[i]
	if !ln.paused[i] {
		v += (t - ln.viewSync[i]) * bview
	}
	if v < 0 {
		return 0
	}
	if v > ln.size[i] {
		return ln.size[i]
	}
	return v
}

// stageable reports whether a transmitting, unsuspended stream may take
// spare bandwidth, given its pin flag, staging buffer and buffer level
// (clamped at zero): not pinned by patching, with a staging buffer that
// still has room. Streams feeding multicast taps cannot run ahead (the
// shared receivers' buffers bound the sender), and patch streams share
// their client's buffer with the tapped remainder, so both stay at
// exactly b_view. It is the one staging-candidate predicate: the
// minimum-flow round and gatherSpareCandidates both apply it.
func stageable(pinned bool, bufCap, buf float64) bool {
	return !pinned && bufCap > 0 && buf < bufCap-dataEps
}

// beginRound opens an allocation round: every slot's key is about to be
// rewritten, so the maintained min restarts empty. Copy keys are
// rewritten by the same round (allocateCopies), so they restart too.
func (ln *lane) beginRound() {
	ln.wakeMin = math.Inf(1)
	ln.wakeArg = wakeArgNone
	ln.wakeDirty = false
}

// setWake stores slot i's wake key and folds it into the maintained
// min. Within a round a slot's key can be rewritten (the spare feed
// raises rates, which only lowers keys); a raise of the current min is
// still handled, by marking the index dirty.
func (ln *lane) setWake(i int32, k float64) {
	ln.wake[i] = k
	if k <= ln.wakeMin {
		ln.wakeMin, ln.wakeArg = k, i
	} else if ln.wakeArg == i {
		ln.wakeDirty = true
	}
}

// foldCopyKey folds a copy job's freshly written key into the
// maintained min (the key itself lives on the copyJob).
func (ln *lane) foldCopyKey(k float64) {
	if k <= ln.wakeMin {
		ln.wakeMin, ln.wakeArg = k, wakeArgCopy
	}
}

// reset returns the lane to its empty state, retaining slice capacity
// for Engine.Reset reuse.
func (ln *lane) reset() {
	ln.rate = ln.rate[:0]
	ln.sent = ln.sent[:0]
	ln.last = ln.last[:0]
	ln.susp = ln.susp[:0]
	ln.size = ln.size[:0]
	ln.wake = ln.wake[:0]
	ln.viewOff = ln.viewOff[:0]
	ln.viewSync = ln.viewSync[:0]
	ln.paused = ln.paused[:0]
	ln.bufCap = ln.bufCap[:0]
	ln.pinned = ln.pinned[:0]
	ln.video = ln.video[:0]
	ln.hops = ln.hops[:0]
	ln.beginRound()
}

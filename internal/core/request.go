package core

// Numerical tolerances for the fluid model. Data volumes are in Mb
// (up to ~2×10^4 per object) and times in seconds (up to ~4×10^6 per
// run); float64 leaves ample headroom at these scales.
const (
	dataEps = 1e-6 // Mb: volumes closer than this are equal
	timeEps = 1e-9 // s: times closer than this are equal
)

// request is the engine's per-stream state. Between events a request
// transmits at the piecewise-constant rate of its lane slot; sent data
// is synced lazily to the current time before any decision reads it.
//
// Playback starts at admission and consumes data at the view rate
// except while the viewer has paused (the interactivity extension), so
//
//	viewed(t) = viewOffset                       while paused
//	          = viewOffset + (t − viewSyncT)·b_view  otherwise (≤ size)
//	buffer(t) = sent(t) − viewed(t)   ∈ [0, bufCap]
//
// A request is "unfinished" while sent < size; the server releases its
// bandwidth the moment transmission completes, even though the client
// keeps playing from its buffer afterwards.
//
// Hot-field ownership: while the request is attached to a server, its
// fluid hot fields (rate, sent, last, suspension deadline) live in the
// server's lane at index slot — read and write them there. The carry*
// fields below are the detached representation only: server.detach
// stores the lane slot into them, attach loads them back, and the
// fluid methods on request (syncTo, bufferAt, remaining, finished,
// suspended) operate on them — legal only for detached requests
// (parked streams playing from their buffers, freelist entries, and
// requests not yet attached).
type request struct {
	id    int64
	video int32
	size  float64 // Mb
	start float64 // admission == playback start time

	server int32 // current data source

	// Carried hot fields, valid only while detached (see above).
	carrySent float64 // Mb transmitted, valid as of carryLast
	carryRate float64 // current allocation, Mb/s
	carryLast float64 // time carrySent was last synced

	// Viewer playback state. viewOffset is the data consumed as of
	// viewSyncT; while pausedView is set the offset is frozen.
	viewOffset float64
	viewSyncT  float64
	pausedView bool

	// Per-client capabilities, set at admission from the engine config
	// or the request's drawn client class.
	bufCap  float64 // staging buffer, Mb (0 = no staging)
	recvCap float64 // receive bandwidth cap, Mb/s (0 = unlimited)

	hops int32 // lifetime migrations so far

	// class is the request's traffic class index (Config.Classes), -1
	// on classless runs. It rides the request so retry re-attempts and
	// parked-stream reconnects keep using the class's selector and
	// patience.
	class int32

	// Patching state: isPatch marks a unicast prefix stream whose
	// remainder arrives via a multicast tap; taps counts dependents
	// fed from this stream's transmission. Either pins the stream to
	// its server (the multicast tree must not move).
	isPatch bool
	taps    int32

	// startOff > 0 marks a cluster suffix stream behind the edge tier:
	// the first startOff Mb of the object were served from an edge
	// cache and size covers only the remainder. Cold bookkeeping for
	// accounting and batch-join eligibility; the fluid model treats
	// the stream as an ordinary object of its (suffix) size.
	startOff float64

	// glitched marks a stream whose buffer ran dry while paused by the
	// intermittent scheduler — a playback interruption the client saw.
	glitched bool

	// carrySusp > carryLast marks a stream mid-switch: it holds a slot
	// on the target server but receives no data until this time. Like
	// the other carry fields it is the detached copy; attached streams
	// keep the deadline in lane.susp.
	carrySusp float64

	// parked marks a stream in degraded-mode playback: detached from
	// every server after a failure, draining its client buffer while it
	// retries reconnection. parkVer lazily invalidates scheduled park
	// ticks the same way server.version invalidates wakes.
	parked    bool
	parkVer   uint64
	parkStart float64 // park instant, for the degraded-park observation

	// slot is the request's index within its server's active slice,
	// maintained for O(1) removal.
	slot int32
}

// syncTo advances the carried fluid state to time t. Detached requests
// only (attached streams are advanced by server.syncAll on the lane).
func (r *request) syncTo(t float64) {
	if t <= r.carryLast {
		return
	}
	if r.carryRate > 0 {
		r.carrySent += r.carryRate * (t - r.carryLast)
		if r.carrySent > r.size {
			r.carrySent = r.size // clamp float accumulation error
		}
	}
	r.carryLast = t
}

// viewedAt returns the data consumed by playback at time t.
func (r *request) viewedAt(t float64, bview float64) float64 {
	v := r.viewOffset
	if !r.pausedView {
		v += (t - r.viewSyncT) * bview
	}
	if v < 0 {
		return 0
	}
	if v > r.size {
		return r.size
	}
	return v
}

// pauseViewing freezes playback at time t.
func (r *request) pauseViewing(t float64, bview float64) {
	r.viewOffset = r.viewedAt(t, bview)
	r.viewSyncT = t
	r.pausedView = true
}

// resumeViewing restarts playback at time t.
func (r *request) resumeViewing(t float64) {
	r.viewSyncT = t
	r.pausedView = false
}

// bufferAt returns the client buffer occupancy at time t from the
// carried state. Detached requests only; must be synced to t.
func (r *request) bufferAt(t float64, bview float64) float64 {
	b := r.carrySent - r.viewedAt(t, bview)
	if b < 0 {
		return 0 // float noise only; the model guarantees buffer ≥ 0
	}
	return b
}

// remaining returns the untransmitted volume of the carried state.
func (r *request) remaining() float64 {
	rem := r.size - r.carrySent
	if rem < 0 {
		return 0
	}
	return rem
}

// finished reports whether transmission is complete (carried state).
func (r *request) finished() bool { return r.remaining() <= dataEps }

// suspended reports whether the stream is mid-switch at time t
// (carried state).
func (r *request) suspended(t float64) bool { return r.carrySusp > t+timeEps }

// deadline returns the time by which transmission must complete for
// uninterrupted playback, given the playback state as of now: when
// viewing catches up with the object size. For a paused viewer the
// true deadline depends on the unknown resume time; this reports the
// lower bound obtained if playback resumed immediately.
func (r *request) deadline(bview float64) float64 {
	return r.viewSyncT + (r.size-r.viewOffset)/bview
}

// Package alloc is the index layer beneath the engine's bandwidth
// allocators: reusable, pointer-free ordered indexes over per-server
// allocation candidates.
//
// The engine's allocation policies (EFTF, LFTF, intermittent) feed
// bandwidth to candidates in a deterministic total order keyed by a
// float64 quantity (remaining volume, buffer level) with the request id
// breaking ties. Often only a short prefix of that order is fed — the
// spare bandwidth runs out long before the candidate list does — so
// materializing the full sort on every event is wasted work. Index
// yields the candidates lazily in exactly the order a full sort would
// produce, two ways: Init heapifies them in O(k) and Pop takes the next
// in O(log k), for feeds that take most candidates; Next takes the
// first few from one linear scan (no heap to build) and heapifies only
// if the prefix runs long, for feeds that usually take one or two.
// Either way the un-popped remainder stays available (unordered) for
// order-independent passes.
//
// Entries carry a position into the server's active slice instead of a
// pointer, so a retained scratch Index never pins finished requests
// against the garbage collector.
//
// Determinism contract: Pop and Next yield entries in exactly ascending
// (Key, ID) order — or descending Key with ascending ID ties when the
// index was Reset(true) — which is the same total order Sort produces.
// The engine relies on this to keep selection runs bit-identical to
// full-sort runs (the audit path sorts, the hot path selects).
package alloc

import "slices"

// Entry is one allocation candidate: a sort key, the request id that
// breaks ties deterministically, and the candidate's position in its
// server's active slice.
type Entry struct {
	Key float64
	ID  int64
	Pos int32
}

// Index is a reusable candidate index. The zero value is ready to use.
// Typical cycle: Reset, Add each candidate, then one of Init+Pop or
// Next (lazy ordered selection) or Sort (full order for instrumented
// runs).
type Index struct {
	entries []Entry
	n       int // live length; entries[n:len] are popped
	desc    bool
	next    int // Next's phase since Reset
	staged  int // entries stage moved to entries[n-staged:n], not yet returned
}

// Reset empties the index, reusing its storage. descending selects
// largest-Key-first order (ID ties stay ascending).
func (x *Index) Reset(descending bool) {
	x.entries = x.entries[:0]
	x.n = 0
	x.desc = descending
	x.next = nextScan
	x.staged = 0
}

// Add appends a candidate. Call Init before the first Pop.
func (x *Index) Add(key float64, id int64, pos int32) {
	x.entries = append(x.entries, Entry{Key: key, ID: id, Pos: pos})
	x.n = len(x.entries)
}

// Len returns the number of un-popped candidates.
func (x *Index) Len() int { return x.n }

// before reports whether a precedes b in the index's feed order.
func (x *Index) before(a, b Entry) bool {
	if a.Key != b.Key {
		if x.desc {
			return a.Key > b.Key
		}
		return a.Key < b.Key
	}
	return a.ID < b.ID
}

// Init heapifies the added candidates in O(k). Must be called after the
// last Add and before the first Pop; Sort does not require it.
func (x *Index) Init() {
	for i := x.n/2 - 1; i >= 0; i-- {
		x.siftDown(i)
	}
}

// Pop removes and returns the next candidate in feed order. The popped
// entry remains reachable via All. Panics when empty.
func (x *Index) Pop() Entry {
	top := x.entries[0]
	x.n--
	x.entries[0] = x.entries[x.n]
	x.entries[x.n] = top
	if x.n > 1 {
		x.siftDown(0)
	}
	return top
}

// linearPicks is how many candidates Next takes from its one linear
// scan. The spare feed's prefix is one or two candidates, sometimes
// three or four, and on the scale-drm cell four left the heap unused
// where two still built it often. The scan costs about k compares on
// unordered entries (at most 4k); a longer prefix heapifies the rest,
// so it costs one scan more than Init+Pop, never O(k²).
const linearPicks = 4

// Next removes and returns the next candidate in feed order. It needs
// no Init: the first call scans the entries once for the first
// linearPicks in order and stages them at the end of the un-popped
// region, later calls pop staged entries in O(1), and once those are
// used up the rest is heapified once and popped. Do not mix with
// Init/Pop. The popped entry remains reachable via All. Panics when
// empty.
func (x *Index) Next() Entry {
	switch x.next {
	case nextScan:
		x.staged = x.stage()
		x.next = nextStaged
	case nextStaged:
		if x.staged == 0 {
			x.Init()
			x.next = nextHeap
		}
	}
	if x.next == nextStaged {
		x.staged--
		x.n--
		return x.entries[x.n]
	}
	return x.Pop()
}

// Next's phases.
const (
	nextScan   = iota // no Next call since Reset
	nextStaged        // returning the entries stage moved to the end
	nextHeap          // popping the heapified rest
)

// stage finds the first min(linearPicks, n) un-popped entries in feed
// order with one scan and moves them to the end of the un-popped
// region, the first one last, so that Next pops them off the end. It
// returns how many it moved.
func (x *Index) stage() int {
	e := x.entries[:x.n]
	var top [linearPicks]int // positions of the first entries, in order
	c := 0
	for j := range e {
		if c == len(top) {
			if !x.before(e[j], e[top[c-1]]) {
				continue
			}
			c-- // j displaces the last of the current top
		}
		p := c
		for p > 0 && x.before(e[j], e[top[p-1]]) {
			top[p] = top[p-1]
			p--
		}
		top[p] = j
		c++
	}
	for r := 0; r < c; r++ {
		dst := len(e) - 1 - r
		e[top[r]], e[dst] = e[dst], e[top[r]]
		// The entry that sat at dst moved to top[r]; it may be a later
		// member of the top.
		for q := r + 1; q < c; q++ {
			if top[q] == dst {
				top[q] = top[r]
			}
		}
	}
	return c
}

func (x *Index) siftDown(i int) {
	e := x.entries
	for {
		l := 2*i + 1
		if l >= x.n {
			return
		}
		c := l
		if r := l + 1; r < x.n && x.before(e[r], e[l]) {
			c = r
		}
		if !x.before(e[c], e[i]) {
			return
		}
		e[i], e[c] = e[c], e[i]
		i = c
	}
}

// Rest returns the un-popped candidates in unspecified order. Use only
// for order-independent passes. The slice aliases the index; it is
// invalidated by Reset, Add, Pop, and Sort.
func (x *Index) Rest() []Entry { return x.entries[:x.n] }

// All returns every added candidate — popped and un-popped — in
// unspecified order. Same aliasing caveats as Rest.
func (x *Index) All() []Entry { return x.entries }

// Sort orders all candidates in feed order and returns them. After
// Sort the index should not be popped (use the returned slice).
func (x *Index) Sort() []Entry {
	slices.SortFunc(x.entries, func(a, b Entry) int {
		switch {
		case x.before(a, b):
			return -1
		case x.before(b, a):
			return 1
		default:
			return 0
		}
	})
	x.n = len(x.entries)
	return x.entries
}

package core

// eftfAllocator implements the paper's EARLIESTFINISHTIMEFIRST
// procedure (Figure 2):
//
//  1. every unfinished, non-suspended request receives the view
//     bandwidth b_view (the minimum-flow guarantee), then
//  2. while spare bandwidth remains, the request with the earliest
//     projected finishing time whose client buffer is not full receives
//     as much additional bandwidth as its client can absorb
//     (min(spare, b_receive − b_r)).
//
// The projected finishing time at t is t + remaining/b_view for every
// request, so "earliest projected finish" is exactly "smallest
// remaining volume" — the comparison the implementation uses.
//
// The theorem in Section 3.3 shows this rule is optimal among
// minimum-flow algorithms when client receive bandwidth is unbounded;
// with a receive cap it remains the paper's (empirically near-optimal)
// policy.
type eftfAllocator struct{}

func init() {
	RegisterAllocator(AllocMinFlowEFTF, func() BandwidthAllocator { return eftfAllocator{} })
}

func (eftfAllocator) Name() string { return AllocMinFlowEFTF }

func (eftfAllocator) Allocate(e *Engine, s *server, t float64) float64 {
	avail := e.minFlowRates(s, t, e.spareMisorder)
	avail = e.allocateCopies(s, t, avail)
	if e.cfg.Workahead && avail > dataEps {
		e.feedSpareOrdered(s, t, avail)
	}
	return s.wakeAt(t)
}

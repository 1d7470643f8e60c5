package core

// evenSplitAllocator divides spare bandwidth equally among all staging
// candidates regardless of progress (water-filling): the order-free
// ablation of the EFTF theorem's scheduling rule.
type evenSplitAllocator struct{}

func init() {
	RegisterAllocator(AllocMinFlowEvenSplit, func() BandwidthAllocator { return evenSplitAllocator{} })
}

func (evenSplitAllocator) Name() string { return AllocMinFlowEvenSplit }

func (evenSplitAllocator) Allocate(e *Engine, s *server, t float64) float64 {
	avail := e.minFlowRates(s, t, false)
	avail = e.allocateCopies(s, t, avail)
	if e.cfg.Workahead && avail > dataEps {
		e.feedSpareEven(s, t, avail)
	}
	return s.wakeAt(t)
}

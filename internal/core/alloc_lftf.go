package core

// lftfAllocator is the adversarial ablation of the EFTF theorem: the
// minimum-flow guarantee is identical, but spare bandwidth goes to the
// *latest* projected finisher first. The experiments use it to measure
// how much the theorem's ordering rule is worth empirically (A-EFTF).
type lftfAllocator struct{}

func init() {
	RegisterAllocator(AllocMinFlowLFTF, func() BandwidthAllocator { return lftfAllocator{} })
}

func (lftfAllocator) Name() string { return AllocMinFlowLFTF }

func (lftfAllocator) Allocate(e *Engine, s *server, t float64) float64 {
	avail := e.minFlowRates(s, t, true)
	avail = e.allocateCopies(s, t, avail)
	if e.cfg.Workahead && avail > dataEps {
		e.feedSpareOrdered(s, t, avail)
	}
	return s.wakeAt(t)
}

package core

import (
	"fmt"
	"math"
	"slices"
)

// BandwidthAllocator is the policy seam between the engine and the
// bandwidth-allocation rule. The engine owns event dispatch and fluid
// state; an allocator owns one decision: given a server whose requests
// and copy jobs are synced to time t, assign every stream's
// transmission rate and report when the allocation must next be
// revisited.
//
// Implementations live beside the engine in this package (they read
// per-request fluid state directly, which keeps the per-event hot path
// free of interface dispatch per request). Adding a policy is a
// one-file addition: implement the interface, call RegisterAllocator
// from an init function, and select it by name via Config.Allocator
// (threaded from semicont.Policy.Allocator).
type BandwidthAllocator interface {
	// Name returns the allocator's registry name.
	Name() string

	// Allocate recomputes the bandwidth allocation of server s at time
	// t. Every request in s.active and every copy job must already be
	// synced to t. It returns the earliest future instant at which the
	// allocation must be recomputed absent external events (+Inf when
	// the server is idle).
	Allocate(e *Engine, s *server, t float64) float64
}

// Registry names of the built-in allocation policies.
const (
	// AllocMinFlowEFTF is the paper's algorithm: minimum-flow guarantee
	// plus Earliest-Finishing-Time-First workahead (Figure 2).
	AllocMinFlowEFTF = "minflow-eftf"
	// AllocMinFlowLFTF feeds spare to the latest projected finisher
	// first — the adversarial ablation of the EFTF theorem.
	AllocMinFlowLFTF = "minflow-lftf"
	// AllocMinFlowEvenSplit water-fills spare bandwidth equally across
	// staging candidates.
	AllocMinFlowEvenSplit = "minflow-evensplit"
	// AllocIntermittent is the Section 3.3 intermittent-class heuristic:
	// full-buffer streams may be paused entirely so the server can
	// over-subscribe its minimum-flow slots.
	AllocIntermittent = "intermittent"
)

// allocRegistry maps registry names to allocator factories. Factories
// (not instances) are registered because engines run concurrently and
// an allocator may carry per-engine scratch.
var allocRegistry = map[string]func() BandwidthAllocator{}

// RegisterAllocator adds a named bandwidth-allocation policy to the
// registry. It panics on an empty or duplicate name — registration is
// an init-time programming act, not a runtime input.
func RegisterAllocator(name string, factory func() BandwidthAllocator) {
	if name == "" {
		panic("core: RegisterAllocator with empty name")
	}
	if factory == nil {
		panic("core: RegisterAllocator with nil factory")
	}
	if _, dup := allocRegistry[name]; dup {
		panic(fmt.Sprintf("core: allocator %q registered twice", name))
	}
	allocRegistry[name] = factory
}

// HasAllocator reports whether a policy with the given registry name
// exists.
func HasAllocator(name string) bool {
	_, ok := allocRegistry[name]
	return ok
}

// AllocatorNames returns the registered policy names, sorted.
func AllocatorNames() []string {
	names := make([]string, 0, len(allocRegistry))
	for n := range allocRegistry {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// AllocatorName returns the effective registry name for this
// configuration: Allocator when set, otherwise the name derived from
// the legacy Intermittent/Spare fields.
func (c Config) AllocatorName() string {
	if c.Allocator != "" {
		return c.Allocator
	}
	if c.Intermittent {
		return AllocIntermittent
	}
	switch c.Spare {
	case LFTF:
		return AllocMinFlowLFTF
	case EvenSplit:
		return AllocMinFlowEvenSplit
	default:
		return AllocMinFlowEFTF
	}
}

// validateAllocator cross-checks Config.Allocator against the registry
// and the legacy scheduling fields. The four built-in names must agree
// with the Intermittent/Spare flags they mirror (admission control and
// the audit contract read those flags); custom registered policies are
// accepted as-is.
func (c Config) validateAllocator() error {
	if c.Allocator == "" {
		return nil
	}
	if !HasAllocator(c.Allocator) {
		return fmt.Errorf("core: unknown allocator %q (have %v)", c.Allocator, AllocatorNames())
	}
	switch c.Allocator {
	case AllocMinFlowEFTF, AllocMinFlowLFTF, AllocMinFlowEvenSplit, AllocIntermittent:
		derived := Config{Intermittent: c.Intermittent, Spare: c.Spare}.AllocatorName()
		if c.Allocator != derived {
			return fmt.Errorf("core: Allocator %q inconsistent with Intermittent/Spare (which imply %q)", c.Allocator, derived)
		}
	}
	return nil
}

// allocator returns the engine's bandwidth allocator, resolving it from
// the registry on first use. Resolution is deliberately lazy — bound at
// the first allocation, not at construction — which mirrors the
// pre-seam behavior of dispatching on the config at call time (tests
// adjust cfg between NewEngine and the first event). Validate vets the
// name, so resolution cannot fail for a validated configuration.
func (e *Engine) allocator() BandwidthAllocator {
	if e.alloc == nil {
		name := e.cfg.AllocatorName()
		factory, ok := allocRegistry[name]
		if !ok {
			panic(fmt.Sprintf("core: allocator %q not registered", name))
		}
		e.alloc = factory()
	}
	return e.alloc
}

// allocate recomputes the bandwidth allocation of server s at time t
// via the engine's allocator, discarding the next-wake value. Tests use
// it to exercise allocation in isolation; the event path goes through
// reschedule, which keeps the fused next-wake result.
func (e *Engine) allocate(s *server, t float64) {
	e.allocator().Allocate(e, s, t)
	s.auditDirty = true
}

// reschedule recomputes s's allocation at time t and replaces its
// pending wake event. Requests must be synced to t first. The wake is
// held rather than pushed: reschedule is almost always the last act of
// an event handler, so the wake can be fused with the next pop.
func (e *Engine) reschedule(s *server, t float64) {
	next := e.allocator().Allocate(e, s, t)
	s.auditDirty = true // rates, wake keys, glitch flags
	s.version++
	if !math.IsInf(next, 1) {
		e.holdWake(next, event{kind: evServerWake, server: s.id, version: s.version})
	}
}

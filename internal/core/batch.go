package core

// Stream batching: the policy seam for how concurrent requests to the
// same title share cluster streams. Multicast patching (patching.go)
// is the "patch" policy behind this registry; "unicast" shares
// nothing; "batch-prefix" is the edge-tier variant where a joiner
// whose prefix is cached at the edge taps an ongoing *suffix* stream
// and the edge relays the small catch-up gap — so a burst of hits on a
// hot title costs the cluster one suffix stream ("A Strategy to enable
// Prefix of Multicast VoD through dynamic buffer allocation",
// PAPERS.md).
//
// The registry mirrors RegisterAllocator/RegisterSelector exactly:
// registration is an init-time programming act that panics on empty or
// duplicate names, Validate vets configured names up front, and the
// engine resolves its policy lazily on first use.

import (
	"fmt"
	"slices"
)

// BatchPolicy decides whether a new arrival can be served by joining
// an ongoing transmission instead of opening its own cluster stream.
//
// TryJoin is consulted after load shedding and before the admission
// controller. prefix is the volume (Mb) the arrival's edge node serves
// locally (0 on a miss or with the edge tier disabled). On success the
// policy has done all join bookkeeping (metrics, taps, reschedules)
// except the caller-owned per-class acceptance count and wait
// observations, and must leave engine state untouched on failure.
type BatchPolicy interface {
	// Name returns the policy's registry name.
	Name() string

	// TryJoin attempts to serve the arrival by sharing; it reports
	// whether the request was fully handled.
	TryJoin(e *Engine, v int, t, bufCap, recvCap float64, class int32, prefix float64) bool
}

// Registry names of the built-in batch policies.
const (
	// BatchUnicast shares nothing: every admitted request gets its own
	// cluster stream. The default.
	BatchUnicast = "unicast"
	// BatchPatch is classic multicast patching: a joiner taps a
	// whole-object primary and receives the missed prefix as a short
	// unicast patch (see patching.go), within Edge.BatchWindow.
	BatchPatch = "patch"
	// BatchBatchPrefix batches at the edge: a joiner holding an edge
	// prefix hit taps an ongoing cluster suffix stream for the same
	// title; the edge relays the catch-up gap from its buffer, so the
	// join consumes no cluster bandwidth and no server slot at all.
	BatchBatchPrefix = "batch-prefix"
)

// batchRegistry maps batch-policy names to factories, with the same
// contract as the allocator and controller registries.
var batchRegistry = map[string]func() BatchPolicy{}

// RegisterBatchPolicy adds a named batch policy to the registry. It
// panics on an empty or duplicate name — registration is an init-time
// programming act, not a runtime input.
func RegisterBatchPolicy(name string, factory func() BatchPolicy) {
	if name == "" {
		panic("core: RegisterBatchPolicy with empty name")
	}
	if factory == nil {
		panic("core: RegisterBatchPolicy with nil factory")
	}
	if _, dup := batchRegistry[name]; dup {
		panic(fmt.Sprintf("core: batch policy %q registered twice", name))
	}
	batchRegistry[name] = factory
}

// HasBatchPolicy reports whether a batch policy with the given name
// exists.
func HasBatchPolicy(name string) bool {
	_, ok := batchRegistry[name]
	return ok
}

// BatchPolicyNames returns the registered batch-policy names, sorted.
func BatchPolicyNames() []string {
	names := make([]string, 0, len(batchRegistry))
	for n := range batchRegistry {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// BatchPolicyName returns the effective batch-policy registry name for
// this configuration: Edge.Batch when set, BatchUnicast otherwise.
func (c Config) BatchPolicyName() string {
	if c.Edge.Batch != "" {
		return c.Edge.Batch
	}
	return BatchUnicast
}

// batch returns the engine's batch policy, resolved lazily from the
// registry like selector(); Validate vets the name, so resolution
// cannot fail for a validated configuration.
func (e *Engine) batch() BatchPolicy {
	if e.batchPol == nil {
		name := e.cfg.BatchPolicyName()
		factory, ok := batchRegistry[name]
		if !ok {
			panic(fmt.Sprintf("core: batch policy %q not registered", name))
		}
		e.batchPol = factory()
	}
	return e.batchPol
}

func init() {
	RegisterBatchPolicy(BatchUnicast, func() BatchPolicy { return unicastBatch{} })
	RegisterBatchPolicy(BatchPatch, func() BatchPolicy { return patchBatch{} })
	RegisterBatchPolicy(BatchBatchPrefix, func() BatchPolicy { return batchPrefix{} })
}

// unicastBatch implements BatchUnicast: never join.
type unicastBatch struct{}

func (unicastBatch) Name() string { return BatchUnicast }

func (unicastBatch) TryJoin(*Engine, int, float64, float64, float64, int32, float64) bool {
	return false
}

// patchBatch implements BatchPatch by delegating to the patching
// mechanism, which does its own join bookkeeping.
type patchBatch struct{}

func (patchBatch) Name() string { return BatchPatch }

func (patchBatch) TryJoin(e *Engine, v int, t, bufCap, recvCap float64, class int32, prefix float64) bool {
	_, ok := e.tryPatchJoin(v, t, bufCap, recvCap)
	return ok
}

// batchPrefix implements BatchBatchPrefix. Only an arrival whose
// prefix is served at the edge can join (a miss needs the head from
// the cluster anyway, so it opens its own whole-object stream). The
// join taps the cheapest ongoing suffix stream of the same title whose
// progress — the catch-up the edge must relay from its buffer of the
// shared stream — fits both the batch window and the joiner's client
// buffer. Joining pins the primary like patching does (taps > 0: no
// workahead run-ahead, no migration); it consumes no server slot, so
// no admission test is needed.
type batchPrefix struct{}

func (batchPrefix) Name() string { return BatchBatchPrefix }

func (batchPrefix) TryJoin(e *Engine, v int, t, bufCap, recvCap float64, class int32, prefix float64) bool {
	if prefix <= 0 {
		return false
	}
	maxCatch := e.cfg.Edge.BatchWindow * e.cfg.ViewRate
	if bufCap < maxCatch {
		maxCatch = bufCap // the relayed catch-up is buffered client-side
	}
	// Find the cheapest joinable primary: the suffix stream with the
	// least progress (smallest relay) wins, ties to the lowest id.
	var primary *request
	var primarySent float64
	for _, h := range e.holders(v) {
		s := e.servers[h]
		if s.failed {
			continue
		}
		synced := false
		for i, r := range s.active {
			if int(r.video) != v || r.startOff <= 0 || r.isPatch || s.suspendedAt(i, t) {
				continue
			}
			if !synced {
				s.syncAll(t)
				synced = true
			}
			sent := s.ln.sent[i]
			if s.finishedAt(i) || sent > maxCatch+dataEps {
				continue
			}
			if primary == nil || sent < primarySent ||
				(sent == primarySent && r.id < primary.id) {
				primary, primarySent = r, sent
			}
		}
	}
	if primary == nil {
		return false
	}
	s := e.servers[primary.server]
	s.syncAll(t)
	s.addTap(primary)

	// Every suffix stream of v starts startOff = prefix deep (the
	// prefix size is fixed per run), so the joiner's delivery is
	// exactly: prefix (edge cache) + catch-up (edge relay) + the rest
	// of the suffix (shared stream).
	full := e.cat.Video(v).Size
	shared := full - prefix - primarySent
	e.metrics.Accepted++
	e.metrics.Completions++
	e.metrics.BatchedJoins++
	e.metrics.EdgeHits++
	e.metrics.EdgeMb += prefix + primarySent
	e.metrics.SharedMb += shared
	if e.audit != nil {
		e.auditFail(e.audit.EdgeServe(t, int32(v), prefix, primarySent, shared, 0, full, true))
	}
	// The tap pins the primary to the view rate (spare.go skips
	// taps > 0); re-run the allocation so the pin takes effect now.
	e.reschedule(s, t)
	return true
}

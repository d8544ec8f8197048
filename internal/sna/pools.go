package sna

import (
	"sync"

	"stanoise/internal/core"
)

// PoolSet is a thread-safe free list of compiled-bench pools (see
// core.RigPool). Each analysis worker checks one pool out for the clusters
// it processes and returns it afterwards, so pools are never shared
// between concurrent goroutines — sessions are single-goroutine objects —
// yet compiled benches persist across runs.
//
// Every Analyzer owns a private PoolSet by default. A long-lived process
// serving many designs shares one PoolSet across analyzers via
// Options.RigPools, exactly as it shares a charlib.Cache via
// Options.Cache: benches compiled for one request are reused by every
// later request whose cluster topologies match (benches key on content,
// see core.RigPool), and Invalidate releases their memory.
type PoolSet struct {
	mu     sync.Mutex
	limits core.RigPoolLimits
	pools  []*core.RigPool

	// retired accumulates the statistics of invalidated pools so
	// hit-rate accounting survives an Invalidate.
	retiredHits, retiredMisses int
}

// NewPoolSet returns an empty pool set whose pools are bounded by the
// given limits (the zero value selects the core.RigPool defaults).
func NewPoolSet(limits core.RigPoolLimits) *PoolSet {
	return &PoolSet{limits: limits}
}

// acquire checks a pool out, creating one when the list is empty (first
// run, or more concurrent workers than ever before).
func (ps *PoolSet) acquire() *core.RigPool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if n := len(ps.pools); n > 0 {
		p := ps.pools[n-1]
		ps.pools = ps.pools[:n-1]
		return p
	}
	return core.NewRigPoolWithLimits(ps.limits)
}

// release returns a pool to the free list for the next run or worker.
func (ps *PoolSet) release(p *core.RigPool) {
	ps.mu.Lock()
	ps.pools = append(ps.pools, p)
	ps.mu.Unlock()
}

// Stats sums compiled-bench pool effectiveness over the set (including
// pools dropped by Invalidate): hits counts bench compilations avoided by
// topology-class reuse, misses counts benches actually compiled. Pools
// checked out by in-flight workers are not counted.
func (ps *PoolSet) Stats() (hits, misses int) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	hits, misses = ps.retiredHits, ps.retiredMisses
	for _, p := range ps.pools {
		h, m := p.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// Bytes sums the memory estimate of every idle pool's resident benches.
func (ps *PoolSet) Bytes() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var b int64
	for _, p := range ps.pools {
		b += p.Bytes()
	}
	return b
}

// Len returns the number of compiled benches held across idle pools.
func (ps *PoolSet) Len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for _, p := range ps.pools {
		n += p.Len()
	}
	return n
}

// Invalidate drops every compiled bench of every idle pool, returning how
// many benches were dropped. It releases memory; it is not needed for
// correctness, because pooled benches key on content (card fingerprints,
// states, geometry, solver options), so a reloaded library or an edited
// tech card never matches a retained bench. Pools checked out by in-flight
// workers are unaffected and are dropped the next time they pass through
// the free list only if Invalidate is called again; servers quiesce first
// (stop admitting, drain) for a complete drop.
func (ps *PoolSet) Invalidate() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := 0
	for _, p := range ps.pools {
		h, m := p.Stats()
		ps.retiredHits += h
		ps.retiredMisses += m
		n += p.Invalidate()
	}
	// Replace, don't reuse: a fresh slice makes the dropped pools (and
	// their statistics, now folded into retired*) unreachable.
	ps.pools = nil
	return n
}

package core

import (
	"fmt"

	"stanoise/internal/sim"
)

// RigPool caches compiled simulator test benches — program/session pairs —
// across the clusters a single analysis worker processes, keyed like
// charlib.Cache by the *content* of the bench (every cell's
// cell.Cell.Fingerprint, states, pins, bus geometry and wire parameters,
// and solver options) rather than by cluster identity. Two clusters whose
// victim drivers share a cell configuration on equal cards reuse one
// compiled driver-alone bench; re-analysing a design through the same
// analyzer reuses the golden benches of every cluster whose topology is
// unchanged. Cards that differ in any device parameter — another corner,
// the nonlinear-cap model, an edited KP under the same name — key apart.
// Only source waveforms and lumped loads are mutated between runs, so
// pooled reuse performs arithmetic identical to a freshly compiled bench.
//
// A RigPool is NOT safe for concurrent use: sessions are single-goroutine
// objects, so each analysis worker owns its own pool (internal/sna hands
// one to every worker goroutine).
//
// The pool is bounded — by entry count and, optionally, by estimated
// resident bytes (see RigPoolLimits) — evicting the least recently used
// bench first. Golden benches key on the full cluster topology and are
// therefore near-unique across a heterogeneous design — without a bound, a
// 10k-net run would retain 10k dense-matrix sessions for the analyzer's
// lifetime. The bound keeps the pool at working-set size: driver-class
// benches (small key space, high reuse) stay resident, and golden benches
// survive exactly long enough for re-evaluation and re-analysis of recent
// clusters. Long-lived holders (an analysis server above all) size pools
// in bytes, and may drop every bench with Invalidate to release memory.
type RigPool struct {
	rigs   map[string]*pooledEntry
	limits RigPoolLimits
	bytes  int64
	seq    int64
	hits   int
	misses int

	// engine is the macromodel engine workspace shared by every cluster
	// evaluated through the pool (see Cluster.engineWorkspace). It holds
	// no library-derived state, so Invalidate leaves it in place.
	engine *engineWorkspace
	// res is the transient result storage shared by every pooled bench
	// (see Cluster.resultLocked): a run's waveforms are copied out before
	// the next run, so one result sized to the largest bench replaces a
	// full node×step buffer per bench.
	res sim.Result
}

// pooledEntry pairs a bench with its last-use stamp for LRU eviction and
// the byte estimate it was admitted under.
type pooledEntry struct {
	rig     *simRig
	lastUse int64
	bytes   int64
}

// RigPoolLimits bounds a pool's resident compiled benches. The zero value
// selects the defaults; both bounds are enforced together, LRU-first, and
// the most recently inserted bench is never evicted (a bench larger than
// MaxBytes on its own is kept until the next insertion displaces it —
// refusing it outright would force recompilation on every evaluation).
type RigPoolLimits struct {
	// MaxRigs bounds the number of resident benches; <= 0 selects the
	// default of 64. A bench is a Program plus a Session (dense size×size
	// matrices, an LU workspace and result buffers) — roughly hundreds of
	// kilobytes at cluster scale — so the default keeps a worker's pool in
	// the tens of megabytes worst-case while comfortably covering the
	// distinct driver classes plus the recently evaluated golden topologies
	// of a real design.
	MaxRigs int
	// MaxBytes additionally bounds the pool by the summed
	// sim.Session.MemoryBytes estimate of its benches; <= 0 disables the
	// byte bound. This is the long-lived-server knob: cluster sizes vary
	// wildly between requests, so a count bound alone cannot cap worst-case
	// memory.
	MaxBytes int64
}

// defaultMaxPoolRigs is the entry-count bound selected by zero
// RigPoolLimits; see RigPoolLimits.MaxRigs for the sizing rationale.
const defaultMaxPoolRigs = 64

func (l RigPoolLimits) normalize() RigPoolLimits {
	if l.MaxRigs <= 0 {
		l.MaxRigs = defaultMaxPoolRigs
	}
	return l
}

// NewRigPool returns an empty pool with default limits, ready for
// single-goroutine use.
func NewRigPool() *RigPool { return NewRigPoolWithLimits(RigPoolLimits{}) }

// NewRigPoolWithLimits returns an empty pool bounded by the given limits.
func NewRigPoolWithLimits(l RigPoolLimits) *RigPool {
	return &RigPool{rigs: map[string]*pooledEntry{}, limits: l.normalize()}
}

// lookup returns the pooled rig for key, building and memoizing it on the
// first request and evicting least-recently-used benches while either
// limit is exceeded. Build errors are not memoized: a failing topology is
// re-attempted (and fails identically) on the next request.
func (p *RigPool) lookup(key string, build func() (*simRig, error)) (*simRig, error) {
	p.seq++
	if e, ok := p.rigs[key]; ok {
		p.hits++
		e.lastUse = p.seq
		return e.rig, nil
	}
	r, err := build()
	if err != nil {
		return nil, err
	}
	p.misses++
	p.rigs[key] = &pooledEntry{rig: r, lastUse: p.seq, bytes: r.memoryBytes()}
	p.bytes += p.rigs[key].bytes
	p.evict()
	return r, nil
}

// evict removes least-recently-used benches until both limits hold,
// always sparing the entry touched by the current lookup (lastUse ==
// p.seq) so the bench about to be used cannot be evicted under it.
func (p *RigPool) evict() {
	for len(p.rigs) > 1 &&
		(len(p.rigs) > p.limits.MaxRigs || (p.limits.MaxBytes > 0 && p.bytes > p.limits.MaxBytes)) {
		var oldestKey string
		oldest := int64(1<<63 - 1)
		for k, e := range p.rigs {
			if e.lastUse < oldest && e.lastUse != p.seq {
				oldest, oldestKey = e.lastUse, k
			}
		}
		if oldestKey == "" {
			return
		}
		p.bytes -= p.rigs[oldestKey].bytes
		delete(p.rigs, oldestKey)
	}
}

// Invalidate drops every pooled bench, returning how many were held. It is
// a memory-release point for long-lived processes, not a correctness one:
// benches key on content, so a reloaded library or an edited card already
// misses the old benches, which then only age out under the LRU bound.
// Statistics survive.
func (p *RigPool) Invalidate() int {
	n := len(p.rigs)
	p.rigs = map[string]*pooledEntry{}
	p.bytes = 0
	return n
}

// Len returns the number of compiled benches held by the pool.
func (p *RigPool) Len() int { return len(p.rigs) }

// Bytes returns the summed memory estimate of the pooled benches.
func (p *RigPool) Bytes() int64 { return p.bytes }

// Stats reports pool effectiveness: hits counts bench compilations avoided
// by reuse, misses counts benches actually compiled.
func (p *RigPool) Stats() (hits, misses int) { return p.hits, p.misses }

// memoryBytes estimates a bench's resident footprint: the session's dense
// solver state dominates; the compiled program's stamp plans are a small
// constant on top.
func (r *simRig) memoryBytes() int64 {
	const programOverhead = 4096
	if r == nil || r.sess == nil {
		return programOverhead
	}
	return r.sess.MemoryBytes() + programOverhead
}

// engineWorkspace returns the pool's macromodel engine workspace, creating
// it on first use. Like the pooled benches it belongs to the pool's single
// goroutine.
func (p *RigPool) engineWorkspace() *engineWorkspace {
	if p.engine == nil {
		p.engine = &engineWorkspace{}
	}
	return p.engine
}

// UseRigPool attaches a pool to the cluster: subsequent evaluations cache
// their compiled benches in the pool under content keys instead of
// on the cluster itself, sharing them with every other cluster using the
// same pool, and run the macromodel engine in the pool's workspace. Attach
// before the first evaluation; the pool must be owned by the same goroutine
// that evaluates the cluster.
func (c *Cluster) UseRigPool(p *RigPool) {
	c.rigMu.Lock()
	c.rigPool = p
	c.rigMu.Unlock()
}

// driverClassKey identifies the topology class of the driver-alone bench,
// which depends only on the card and the victim cell configuration — not
// on the bus, aggressors or cluster identity. This is where pooling pays
// off across clusters: every victim sharing a cell configuration (the
// common case in a real design) shares one compiled bench.
func (c *Cluster) driverClassKey() string {
	v := &c.Victim
	return fmt.Sprintf("tech=%s|vic=%s,%s,%s",
		c.Tech.Fingerprint(), v.Cell.Fingerprint(), v.State.String(), v.NoisyPin)
}

// pooledRig routes a rig lookup through the attached pool under a
// kind-prefixed topology key. The caller must hold c.rigMu.
func (c *Cluster) pooledRig(kind, classKey string, simOpts sim.Options, build func() (*simRig, error)) (*simRig, error) {
	key := kind + "#" + optionsFingerprint(simOpts) + "#" + classKey
	return c.rigPool.lookup(key, build)
}

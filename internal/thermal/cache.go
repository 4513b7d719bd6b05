package thermal

import (
	"encoding/binary"
	"math"
	"sync"
)

// Factorization cache: campaigns run hundreds to thousands of cells over a
// handful of distinct (Network, dt) configurations, and each FixedStepper
// construction pays an O(n^3) LU factorization plus n back-solves. The cache
// keys the finished fixedUpdate by the exact float64 bit patterns of every
// physical parameter, so value-identical configurations share one immutable
// A/B/c matrix set: the factorization runs once, and every stepper streams
// the same cache-resident memory.
//
// The key is an exact byte string, not a hash, so a collision cannot silently
// corrupt the physics: either every bit of the configuration matches or the
// entry is not reused.
var updateCache = struct {
	sync.Mutex
	m map[string]*fixedUpdate
}{m: make(map[string]*fixedUpdate)}

// updateCacheCap bounds the cache. Campaigns use a handful of configurations;
// if an adversarial workload churns past the cap the map is simply cleared —
// correctness never depends on a hit.
const updateCacheCap = 64

// updateKey serializes every parameter that influences the precomputed
// update: node count, step size, ambient, per-node capacitance and ambient
// conductance, and the dense conductance matrix. Node names are excluded —
// they do not enter the arithmetic.
func updateKey(net *Network, dt float64) string {
	n := net.NumNodes()
	buf := make([]byte, 0, 8*(3+2*n+n*n))
	put := func(v float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	put(float64(n))
	put(dt)
	put(net.ambient)
	for i := range net.nodes {
		put(net.nodes[i].Capacitance)
		put(net.nodes[i].AmbientConductance)
	}
	for i := range net.g {
		for j := range net.g[i] {
			put(net.g[i][j])
		}
	}
	return string(buf)
}

// sharedUpdate returns the deduped precomputed update for (net, dt), building
// and caching it on first use. The returned fixedUpdate is immutable and safe
// for concurrent read-only use by any number of steppers.
func sharedUpdate(net *Network, dt float64) (*fixedUpdate, error) {
	key := updateKey(net, dt)
	updateCache.Lock()
	if u, ok := updateCache.m[key]; ok {
		updateCache.Unlock()
		return u, nil
	}
	updateCache.Unlock()
	// Factor outside the lock: construction is the expensive part and
	// distinct configurations should not serialize on each other. A racing
	// duplicate build for the same key is harmless — one winner is stored.
	u, err := newFixedUpdate(net, dt)
	if err != nil {
		return nil, err
	}
	updateCache.Lock()
	if prev, ok := updateCache.m[key]; ok {
		u = prev // keep the first-stored instance so sharing is maximal
	} else {
		if len(updateCache.m) >= updateCacheCap {
			updateCache.m = make(map[string]*fixedUpdate)
		}
		updateCache.m[key] = u
	}
	updateCache.Unlock()
	return u, nil
}

package unionfind

import "sync/atomic"

// Concurrent is a disjoint-set forest safe for concurrent Union and Find,
// lock-free throughout. A Union links the larger root under the smaller with
// one compare-and-swap on the larger root's parent slot, so parent pointers
// only ever move toward smaller indices: the forest cannot form a cycle, and
// a CAS that loses a race has simply observed that its root was linked
// elsewhere in the meantime and re-finds. Finds are atomic walks of parent
// pointers with CAS path halving; they may observe slightly stale roots but
// always converge.
type Concurrent struct {
	parent []int32
}

// NewConcurrent returns a concurrent disjoint-set forest over 0..n-1.
func NewConcurrent(n int) *Concurrent {
	c := &Concurrent{parent: make([]int32, n)}
	for i := range c.parent {
		c.parent[i] = int32(i)
	}
	return c
}

// Len returns the number of elements.
func (c *Concurrent) Len() int { return len(c.parent) }

// find walks to the root without locking, halving the path as it goes:
// each visited node's parent pointer is CASed from its parent to its
// grandparent. The CAS can only replace a pointer with a strictly closer
// ancestor, so the "parents only move toward smaller indices" invariant
// Union relies on is preserved, and concurrent finds shorten chains for each
// other instead of re-walking them.
func (c *Concurrent) find(x int32) int32 {
	for {
		p := atomic.LoadInt32(&c.parent[x])
		if p == x {
			return x
		}
		g := atomic.LoadInt32(&c.parent[p])
		if g == p {
			return p
		}
		atomic.CompareAndSwapInt32(&c.parent[x], p, g)
		x = p
	}
}

// Find returns a representative of x's set. When called concurrently with
// Union the result may be superseded, but after all unions complete it is
// exact.
func (c *Concurrent) Find(x int) int { return int(c.find(int32(x))) }

// Union merges the sets containing x and y. Safe for concurrent use: the
// only write is a CAS that succeeds exactly when hi is still a root, so no
// two unions can both re-parent the same root and no lock is needed.
func (c *Concurrent) Union(x, y int) {
	lo, hi := c.find(int32(x)), c.find(int32(y))
	for lo != hi {
		if lo > hi {
			lo, hi = hi, lo
		}
		if atomic.CompareAndSwapInt32(&c.parent[hi], hi, lo) {
			return
		}
		// hi gained a parent since the find; chase both sides again.
		lo, hi = c.find(lo), c.find(hi)
	}
}

// Same reports whether x and y are currently in the same set. Exact only
// after all concurrent unions have completed.
func (c *Concurrent) Same(x, y int) bool {
	for {
		rx, ry := c.find(int32(x)), c.find(int32(y))
		if rx == ry {
			return true
		}
		// rx may have been superseded between the two finds; confirm it is
		// still a root, otherwise retry.
		if atomic.LoadInt32(&c.parent[rx]) == rx {
			return false
		}
	}
}

// Freeze compresses all paths and returns a sequential UF view with identical
// set structure. Call only after all concurrent operations have completed.
func (c *Concurrent) Freeze() *UF {
	u := New(len(c.parent))
	for i := range c.parent {
		r := int(c.find(int32(i)))
		if r != i {
			u.Union(i, r)
		}
	}
	return u
}

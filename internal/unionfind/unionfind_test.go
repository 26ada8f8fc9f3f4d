package unionfind

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSingletons(t *testing.T) {
	u := New(5)
	if u.Len() != 5 || u.Sets() != 5 {
		t.Fatalf("Len=%d Sets=%d", u.Len(), u.Sets())
	}
	for i := 0; i < 5; i++ {
		if u.Find(i) != i {
			t.Fatalf("Find(%d)=%d", i, u.Find(i))
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := New(6)
	if !u.Union(0, 1) {
		t.Fatal("first union should merge")
	}
	if u.Union(1, 0) {
		t.Fatal("repeat union should report false")
	}
	u.Union(2, 3)
	u.Union(0, 3)
	if u.Sets() != 3 {
		t.Fatalf("Sets=%d want 3", u.Sets())
	}
	if !u.Same(1, 2) {
		t.Fatal("1 and 2 should be connected via 0-1,2-3,0-3")
	}
	if u.Same(0, 4) {
		t.Fatal("4 is a singleton")
	}
}

func TestLabels(t *testing.T) {
	u := New(7)
	u.Union(0, 2)
	u.Union(2, 4)
	u.Union(5, 6)
	l := u.Labels()
	if l[0] != l[2] || l[2] != l[4] {
		t.Fatal("0,2,4 should share a label")
	}
	if l[5] != l[6] {
		t.Fatal("5,6 should share a label")
	}
	if l[0] == l[5] || l[0] == l[1] || l[1] == l[3] {
		t.Fatal("distinct sets must have distinct labels")
	}
	// Dense labels in [0, Sets)
	max := 0
	for _, v := range l {
		if v > max {
			max = v
		}
	}
	if max != u.Sets()-1 {
		t.Fatalf("labels not dense: max=%d sets=%d", max, u.Sets())
	}
}

// Property: union-find equals a naive connectivity oracle under random edges.
func TestAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		n := 2 + rng.Intn(60)
		u := New(n)
		// naive labels
		naive := make([]int, n)
		for i := range naive {
			naive[i] = i
		}
		merge := func(a, b int) {
			la, lb := naive[a], naive[b]
			if la == lb {
				return
			}
			for i := range naive {
				if naive[i] == lb {
					naive[i] = la
				}
			}
		}
		for e := 0; e < n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			u.Union(a, b)
			merge(a, b)
		}
		for trial := 0; trial < 40; trial++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if u.Same(a, b) != (naive[a] == naive[b]) {
				return false
			}
		}
		// set count agrees
		distinct := map[int]bool{}
		for _, v := range naive {
			distinct[v] = true
		}
		return len(distinct) == u.Sets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentMatchesSequential(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(13))
	type edge struct{ a, b int }
	edges := make([]edge, 8000)
	for i := range edges {
		edges[i] = edge{rng.Intn(n), rng.Intn(n)}
	}

	seq := New(n)
	for _, e := range edges {
		seq.Union(e.a, e.b)
	}

	con := NewConcurrent(n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += 8 {
				con.Union(edges[i].a, edges[i].b)
			}
		}(w)
	}
	wg.Wait()

	frozen := con.Freeze()
	if frozen.Sets() != seq.Sets() {
		t.Fatalf("concurrent sets=%d sequential=%d", frozen.Sets(), seq.Sets())
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if frozen.Same(a, b) != seq.Same(a, b) {
			t.Fatalf("connectivity mismatch for %d,%d", a, b)
		}
	}
}

func TestConcurrentSame(t *testing.T) {
	c := NewConcurrent(4)
	c.Union(0, 1)
	if !c.Same(0, 1) || c.Same(0, 2) {
		t.Fatal("Same wrong after single union")
	}
}

func TestFreezeIdempotent(t *testing.T) {
	c := NewConcurrent(10)
	c.Union(1, 2)
	c.Union(2, 3)
	f1 := c.Freeze()
	f2 := c.Freeze()
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if f1.Same(i, j) != f2.Same(i, j) {
				t.Fatal("Freeze not idempotent")
			}
		}
	}
}

func BenchmarkSequentialUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 16
	for i := 0; i < b.N; i++ {
		u := New(n)
		for j := 0; j < n; j++ {
			u.Union(rng.Intn(n), rng.Intn(n))
		}
	}
}

// TestConcurrentFindDuringUnions exercises the lock-free path-halving find
// while unions are in flight; run under -race in CI. Finds may return stale
// roots mid-flight, but connectivity must be exact once the unions are done.
func TestConcurrentFindDuringUnions(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(21))
	type edge struct{ a, b int }
	edges := make([]edge, 6000)
	for i := range edges {
		edges[i] = edge{rng.Intn(n), rng.Intn(n)}
	}
	seq := New(n)
	for _, e := range edges {
		seq.Union(e.a, e.b)
	}

	con := NewConcurrent(n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += 4 {
				con.Union(edges[i].a, edges[i].b)
			}
		}(w)
	}
	// Readers hammer Find/Same concurrently with the unions: results may be
	// stale but must never trip the race detector or fail to terminate.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 20000; i++ {
				x, y := rng.Intn(n), rng.Intn(n)
				con.Find(x)
				con.Same(x, y)
			}
		}(r)
	}
	wg.Wait()

	for trial := 0; trial < 2000; trial++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if con.Same(a, b) != seq.Same(a, b) {
			t.Fatalf("connectivity mismatch for %d,%d", a, b)
		}
	}
}

// TestPathHalvingConverges: after enough finds every chain is short; assert
// Find still returns true roots after interleaved halving.
func TestPathHalvingConverges(t *testing.T) {
	const n = 64
	c := NewConcurrent(n)
	for i := 1; i < n; i++ {
		c.Union(i-1, i) // one long chain
	}
	root := c.Find(0)
	for i := 0; i < n; i++ {
		if c.Find(i) != root {
			t.Fatalf("Find(%d) != Find(0)", i)
		}
	}
}

// within fails the test if fn has not returned by the deadline, so a union
// that blocks forever is a failure rather than a stalled suite.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v: a Union is blocked", d)
	}
}

// TestConcurrentUnionCrossedRootPairs is the regression test for the ABBA
// deadlock of the lock-striped Union: it ordered two roots by index but
// locked stripes[root&255], so the pairs (1, 258) and (2, 257) took stripes
// 1→2 and 2→1. Two goroutines walk such crossed pairs, every pair on fresh
// roots; the lock-free Union has nothing to hold while waiting.
func TestConcurrentUnionCrossedRootPairs(t *testing.T) {
	const rounds, stride = 20000, 512
	c := NewConcurrent(rounds * stride)
	within(t, 30*time.Second, func() {
		var wg sync.WaitGroup
		for _, pair := range [][2]int{{1, 258}, {2, 257}} {
			wg.Add(1)
			go func(a, b int) {
				defer wg.Done()
				for k := 0; k < rounds; k++ {
					c.Union(a+k*stride, b+k*stride)
				}
			}(pair[0], pair[1])
		}
		wg.Wait()
	})
	for k := 0; k < rounds; k++ {
		if !c.Same(1+k*stride, 258+k*stride) || !c.Same(2+k*stride, 257+k*stride) || c.Same(1+k*stride, 2+k*stride) {
			t.Fatalf("round %d: wrong partition", k)
		}
	}
}

// TestConcurrentUnionHeavyContention: 8 goroutines × 100k random edges over
// far more elements than the old stripe count must leave exactly the
// sequential partition. Run under -race in CI.
func TestConcurrentUnionHeavyContention(t *testing.T) {
	const n, workers, perWorker = 1 << 16, 8, 100000
	rng := rand.New(rand.NewSource(31))
	edges := make([][2]int, workers*perWorker)
	seq := New(n)
	for i := range edges {
		edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		seq.Union(edges[i][0], edges[i][1])
	}
	con := NewConcurrent(n)
	within(t, time.Minute, func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(mine [][2]int) {
				defer wg.Done()
				for _, e := range mine {
					con.Union(e[0], e[1])
				}
			}(edges[w*perWorker : (w+1)*perWorker])
		}
		wg.Wait()
	})
	// Same partition: the two label vectors induce each other.
	seqOf, conOf := map[int]int{}, map[int]int{}
	for i := 0; i < n; i++ {
		s, c := seq.Find(i), con.Find(i)
		if v, ok := seqOf[c]; ok && v != s {
			t.Fatalf("element %d: concurrent set %d spans sequential sets %d and %d", i, c, v, s)
		}
		if v, ok := conOf[s]; ok && v != c {
			t.Fatalf("element %d: sequential set %d spans concurrent sets %d and %d", i, s, v, c)
		}
		seqOf[c], conOf[s] = s, c
	}
}

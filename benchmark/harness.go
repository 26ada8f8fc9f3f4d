package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// errDeadline is what guard reports when fn is still running at the deadline.
var errDeadline = errors.New("deadline exceeded")

// errMismatch marks an operation whose output failed its check: the run keeps
// going, reports correct=false and exits non-zero.
var errMismatch = errors.New("wrong output")

const (
	warmupDeadline = 30 * time.Second // flat deadline of a warm-up or of an operation that has none
	deadlineFloor  = 5 * time.Second  // an operation's deadline is 10 x its warm-up time, at least this

	// An operation cheaper than this is sampled several times a round (up to
	// maxReps), as many times as fit: its median then rests on more samples at
	// little cost, where one 50 ms sample a round would be the noisiest number
	// of the run.
	repTarget = 300 * time.Millisecond
	maxReps   = 8
)

// obs is what one operation observed: samples of one named series. Series
// whose name starts with "_" feed derived metrics and are never printed.
type obs struct {
	name string
	vals []float64
}

func one(name string, v float64) obs { return obs{name, []float64{v}} }

// result is what one call of an operation returns: its observations and how
// many operations of the system under test it made (0 counts as 1).
type result struct {
	obs []obs
	n   int
}

// op is one kind of operation, sampled once per round.
type op struct {
	name string
	// run takes one sample. parent is the span the harness opened around the
	// call (-1 in the untraced pass). It must not touch harness state except
	// through the tracer: after a missed deadline it keeps running, parked,
	// while the pass carries on.
	run func(parent int) (result, error)
	// noWarm skips the untimed warm-up (whole-dataset builds and runs in the
	// traced pass, which are long enough not to need one); the deadline is
	// then `deadline`, or warmupDeadline when that is zero.
	noWarm   bool
	deadline time.Duration
	// mayHang marks a guarded multi-worker sample: a missed deadline adds to
	// the count metric <name>_hung instead of to the failed operations, and
	// <name>_s gets the deadline as its sample — a hang costs its deadline.
	mayHang bool

	reps    int // samples per round, set from the warm-up's time
	stopped bool
}

// guard runs fn in a goroutine of its own and waits for it at most d. On a
// miss the goroutine is deliberately left behind: what it is stuck in (a
// lock-order deadlock inside an engine) cannot be cancelled from outside, and
// it is parked, not spinning. A panic in fn is reported as fn's error.
func guard(d time.Duration, fn func() (result, error)) (result, time.Duration, error) {
	type outcome struct {
		r   result
		err error
	}
	ch := make(chan outcome, 1) // buffered: a late finisher must be able to send and exit
	start := time.Now()
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v", p)}
			}
		}()
		r, err := fn()
		ch <- outcome{r, err}
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case o := <-ch:
		return o.r, time.Since(start), o.err
	case <-t.C:
		return result{}, time.Since(start), errDeadline
	}
}

// pass is the outcome of one round-robin pass over a list of operations.
type pass struct {
	samples   map[string][]float64
	attempted int
	failed    int
	incorrect bool
	rounds    int
	failures  []string
}

// runPass warms every operation up once, then takes samples round-robin —
// sample k of every operation before sample k+1 of any, so a noisy stretch of
// a shared host spreads over all metrics instead of sinking one — for about
// budget, but at least minRounds and at most maxRounds rounds.
func (h *harness) runPass(ops []*op, budget time.Duration, minRounds, maxRounds int) *pass {
	p := &pass{samples: map[string][]float64{}}
	root := h.tr.start("pass", -1)
	for _, o := range ops {
		if o.mayHang {
			p.samples[o.name+"_hung"] = []float64{0}
		}
		o.reps = 1
		if o.noWarm {
			if o.deadline == 0 {
				o.deadline = warmupDeadline
			}
			continue
		}
		_, took, ok := h.call(p, o, warmupDeadline, root, "warmup:")
		if ok {
			o.deadline = max(deadlineFloor, 10*took)
			o.reps = min(max(int((repTarget+took/2)/max(took, 1)), 1), maxReps)
		}
	}
	start := time.Now()
	var lastRound time.Duration
	for p.rounds < maxRounds {
		if p.rounds >= minRounds && time.Since(start)+lastRound > budget {
			break
		}
		t := time.Now()
		round := h.tr.start(fmt.Sprintf("round%d", p.rounds), root)
		for _, o := range ops {
			for rep := 0; rep < o.reps && !o.stopped; rep++ {
				res, _, ok := h.call(p, o, o.deadline, round, "")
				if !ok {
					break
				}
				for _, ob := range res.obs {
					p.samples[ob.name] = append(p.samples[ob.name], ob.vals...)
				}
			}
		}
		h.tr.end(round)
		lastRound = time.Since(t)
		p.rounds++
	}
	h.tr.end(root)
	return p
}

// call makes one guarded call of o and does the failure accounting: an error,
// a wrong output or a missed deadline is one failed operation and stops the
// sampling of o.
func (h *harness) call(p *pass, o *op, deadline time.Duration, parent int, prefix string) (result, time.Duration, bool) {
	runtime.GC() // start every sample from a collected heap, not from the previous operation's garbage
	sp := h.tr.start(prefix+o.name, parent)
	res, took, err := guard(deadline, func() (result, error) { return o.run(sp) })
	h.tr.end(sp)
	p.attempted += max(res.n, 1)
	if err == nil {
		return res, took, true
	}
	o.stopped = true
	p.failures = append(p.failures, fmt.Sprintf("%s%s: %v", prefix, o.name, err))
	if errors.Is(err, errDeadline) && o.mayHang {
		p.samples[o.name+"_hung"][0]++
		p.samples[o.name+"_s"] = append(p.samples[o.name+"_s"], took.Seconds())
		return res, took, false
	}
	p.failed++
	if errors.Is(err, errMismatch) {
		p.incorrect = true
	}
	return res, took, false
}

// quantile returns the q-quantile (0..1) of vals by linear interpolation
// between order statistics; q=0.5 is the median.
func quantile(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// span is one harness-side interval around a call into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer was made
	EndNs    int64  `json:"end_ns"`
	// SelfNs is the span minus the part of it its children cover.
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer (the untraced
// pass) records nothing.
type tracer struct {
	mu       sync.Mutex // a parked operation may still end a span after its deadline
	origin   time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload}
}

func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Workload: t.workload, StartNs: now, EndNs: now})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNs = now
	return time.Duration(now - t.spans[id].StartNs)
}

// child records a finished span of duration d laid end-to-end inside parent
// at offset from the parent's start: the way a layer's own step times, which
// it returns instead of letting the harness see the boundaries, become spans.
func (t *tracer) child(name string, parent int, offset, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[parent].StartNs + offset.Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Workload: t.workload, StartNs: s, EndNs: s + d.Nanoseconds()})
}

// finished returns the spans with their self times filled in.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		out[i].SelfNs = out[i].EndNs - out[i].StartNs
	}
	for _, s := range out {
		if s.Parent >= 0 {
			out[s.Parent].SelfNs -= s.EndNs - s.StartNs
		}
	}
	return out
}

package vclock

import (
	"fmt"
	"time"
)

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker preserving schedule order
	fn  func()
}

// before reports whether e runs ahead of o: earlier time first, then
// earlier schedule order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events keyed by (at, seq). It is
// typed, so pushing and popping neither boxes an event nor goes through
// an interface.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the callback reference
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// Scheduler is a single-threaded discrete-event scheduler with a
// virtual clock: the event heap that used to live inside emu.Engine,
// promoted so the emulator and SimClock share one ordered event loop.
// It is not safe for concurrent use on its own; all scheduled callbacks
// run inside its event loop. SimClock adds the locking needed for
// cross-goroutine use.
type Scheduler struct {
	now     time.Duration
	events  eventHeap
	seq     uint64
	stopped bool
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Schedule runs fn after delay of virtual time. A negative delay
// panics: the simulation cannot go back in time.
func (s *Scheduler) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("vclock: negative delay %v", delay))
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute virtual time (>= Now).
func (s *Scheduler) ScheduleAt(at time.Duration, fn func()) {
	s.ScheduleKeyed(at, s.Reserve(), fn)
}

// Reserve takes the next tie-break key without scheduling anything:
// an event later scheduled with ScheduleKeyed under this key runs
// exactly where a ScheduleAt call made now would have placed it among
// events of the same instant. Components that hold deferred work
// outside the heap (a link's delay line, a re-armed timer) use it to
// keep only their earliest entry queued without changing the order.
func (s *Scheduler) Reserve() uint64 {
	s.seq++
	return s.seq
}

// ScheduleKeyed runs fn at the absolute virtual time at (>= Now) under
// a key obtained from Reserve. Each reserved key should be scheduled at
// most once at a time.
func (s *Scheduler) ScheduleKeyed(at time.Duration, seq uint64, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("vclock: schedule at %v before now %v", at, s.now))
	}
	if seq == 0 || seq > s.seq {
		panic(fmt.Sprintf("vclock: key %d was never reserved", seq))
	}
	s.events.push(event{at: at, seq: seq, fn: fn})
}

// next reports the time of the earliest queued event.
func (s *Scheduler) next() (time.Duration, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// step pops the earliest event, advances the clock to it and returns
// its callback. Callers must know the heap is non-empty.
func (s *Scheduler) step() func() {
	ev := s.events.pop()
	s.now = ev.at
	return ev.fn
}

// Run processes events until none remain or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		s.step()()
	}
}

// RunUntil processes events with timestamps <= deadline, then advances
// the clock to the deadline.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped && s.events[0].at <= deadline {
		s.step()()
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// Stop halts Run/RunUntil after the current event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.events) }

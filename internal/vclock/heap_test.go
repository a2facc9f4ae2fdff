package vclock

import (
	"container/heap"
	"strings"
	"testing"
	"time"
)

// refScheduler is the container/heap event loop the typed heap
// replaced, kept here as the reference the differential test checks
// pop order against.
type refScheduler struct {
	now    time.Duration
	seq    uint64
	events refHeap
}

type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (r *refScheduler) Now() time.Duration { return r.now }
func (r *refScheduler) Reserve() uint64    { r.seq++; return r.seq }
func (r *refScheduler) ScheduleAt(at time.Duration, fn func()) {
	r.ScheduleKeyed(at, r.Reserve(), fn)
}
func (r *refScheduler) ScheduleKeyed(at time.Duration, seq uint64, fn func()) {
	heap.Push(&r.events, event{at: at, seq: seq, fn: fn})
}
func (r *refScheduler) Run() {
	for len(r.events) > 0 {
		ev := heap.Pop(&r.events).(event)
		r.now = ev.at
		ev.fn()
	}
}

// loop is the scheduling surface both implementations share.
type loop interface {
	Now() time.Duration
	Reserve() uint64
	ScheduleAt(at time.Duration, fn func())
	ScheduleKeyed(at time.Duration, seq uint64, fn func())
	Run()
}

// fired is one callback execution as the log records it.
type fired struct {
	id int
	at time.Duration
}

// randomProgram drives l through a seeded random schedule and returns
// the callbacks in the order they ran. Every decision an event makes
// depends only on its id, so two loops that pop in the same order make
// the same decisions; the first divergence shows up in the logs. The
// schedule mixes same-instant bursts (delays drawn from a tiny set),
// scheduling from callbacks, and keys reserved by one event but
// scheduled later by another.
func randomProgram(l loop, seed int64) []fired {
	var log []fired
	nextID := 0
	type reserved struct {
		seq uint64
		id  int
	}
	var held []reserved
	delays := []time.Duration{0, 0, time.Microsecond, time.Millisecond, 3 * time.Millisecond}
	var spawn func(id int) func()
	spawn = func(id int) func() {
		return func() {
			log = append(log, fired{id, l.Now()})
			if id >= 3000 {
				return
			}
			r := splitmix(uint64(seed)<<32 | uint64(id))
			for k := 1 + r.Intn(3); k > 0; k-- {
				nextID++
				switch op := r.Intn(4); {
				case op < 2:
					l.ScheduleAt(l.Now()+delays[r.Intn(len(delays))], spawn(nextID))
				case op == 2:
					held = append(held, reserved{l.Reserve(), nextID})
				case len(held) > 0:
					i := r.Intn(len(held))
					h := held[i]
					held = append(held[:i], held[i+1:]...)
					l.ScheduleKeyed(l.Now()+delays[r.Intn(len(delays))], h.seq, spawn(h.id))
				}
			}
		}
	}
	for i := 0; i < 8; i++ {
		nextID++
		l.ScheduleAt(delays[i%len(delays)], spawn(nextID))
	}
	l.Run()
	return log
}

// splitmix is a tiny seeded generator, cheap enough to start one per
// event (splitmix64).
type splitmix uint64

func (s *splitmix) Intn(n int) int {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(n))
}

// TestSchedulerMatchesContainerHeap is the differential check of the
// typed heap: on random schedules it pops events in exactly the order
// the container/heap loop did.
func TestSchedulerMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got := randomProgram(NewScheduler(), seed)
		want := randomProgram(&refScheduler{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events ran, reference ran %d", seed, len(got), len(want))
		}
		if len(got) < 50 {
			t.Fatalf("seed %d: only %d events ran; the program is too small to compare", seed, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d ran %+v, reference ran %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// A key reserved before other same-instant events keeps its place ahead
// of them however late it is scheduled.
func TestReserveKeepsSameInstantOrder(t *testing.T) {
	s := NewScheduler()
	var got []string
	early := s.Reserve()
	s.ScheduleAt(time.Second, func() { got = append(got, "b") })
	late := s.Reserve()
	s.ScheduleAt(time.Second, func() { got = append(got, "d") })
	s.ScheduleKeyed(time.Second, late, func() { got = append(got, "c") })
	s.ScheduleKeyed(time.Second, early, func() { got = append(got, "a") })
	s.Run()
	if got, want := strings.Join(got, ""), "abcd"; got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestScheduleKeyedUnreservedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a key that was never reserved")
		}
	}()
	NewScheduler().ScheduleKeyed(0, 1, func() {})
}

// TestSchedulerSteadyStateAllocs pins the event loop's allocation
// cost: once the heap has grown, a schedule->pop cycle allocates
// nothing.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.Schedule(time.Duration(i), fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Millisecond, fn)
		s.Schedule(0, fn)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule->pop cycle allocates %.1f times, want 0", allocs)
	}
}

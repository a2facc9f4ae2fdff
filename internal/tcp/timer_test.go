package tcp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"satcell/internal/emu"
)

// rtoHarness is a sender whose segments vanish, with one segment
// outstanding, so its retransmission timer can be armed and re-armed
// by hand; fired RTOs and marker events land in one log.
func rtoHarness() (*emu.Engine, *Conn, *[]string) {
	eng := emu.NewEngine()
	var log []string
	void := emu.NewLink(eng, emu.LinkConfig{}, func(*emu.Packet) {})
	c := NewConn(eng, 1, void, void, Config{OnRTO: func() {
		log = append(log, fmt.Sprintf("rto@%v", eng.Now()))
	}})
	c.sndNxt = MSS
	return eng, c, &log
}

func mark(eng *emu.Engine, log *[]string, name string) func() {
	return func() { *log = append(*log, fmt.Sprintf("%s@%v", name, eng.Now())) }
}

// A timer re-armed to a later deadline keeps the event key of the
// re-arm: the entry left from the first arming comes due first and
// re-queues the timer under that key, so the RTO runs after events of
// the same instant scheduled before the re-arm and before those
// scheduled after it.
func TestRTORearmLaterKeepsArmKey(t *testing.T) {
	eng, c, log := rtoHarness()
	eng.ScheduleAt(0, c.armRTO) // 1 s initial RTO: due at 1 s
	eng.ScheduleAt(200*time.Millisecond, func() { eng.ScheduleAt(1200*time.Millisecond, mark(eng, log, "before")) })
	eng.ScheduleAt(300*time.Millisecond, func() {
		c.rto = 900 * time.Millisecond
		c.resetRTO() // now due at 1.2 s
		eng.ScheduleAt(1200*time.Millisecond, mark(eng, log, "after"))
	})
	eng.RunUntil(1300 * time.Millisecond)
	if got, want := strings.Join(*log, " "), "before@1.2s rto@1.2s after@1.2s"; got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
	if n := len(c.rtoQueued); n != 1 {
		t.Fatalf("%d timer entries queued after the RTO re-armed, want 1", n)
	}
}

// A timer re-armed to an earlier deadline queues a second entry, and
// the first one, when it comes due, neither fires nor duplicates the
// timer: the RTOs back off 0.4 s, 0.6 s, 1.0 s exactly as one entry
// per arming did.
func TestRTORearmEarlierFiresOnce(t *testing.T) {
	eng, c, log := rtoHarness()
	eng.ScheduleAt(0, c.armRTO)
	eng.ScheduleAt(300*time.Millisecond, func() {
		c.rto = 100 * time.Millisecond
		c.resetRTO() // due at 0.4 s, ahead of the 1 s entry
	})
	eng.RunUntil(1500 * time.Millisecond)
	if got, want := strings.Join(*log, " "), "rto@400ms rto@600ms rto@1s"; got != want {
		t.Fatalf("RTOs %q, want %q", got, want)
	}
	if eng.Pending() != 1 {
		t.Fatalf("Pending = %d, want only the armed timer's entry", eng.Pending())
	}
}

// oneShot hands out one segment per Kick.
type oneShot struct {
	next  int64
	ready bool
}

func (s *oneShot) Next(maxBytes int) (Chunk, bool) {
	if !s.ready || maxBytes < MSS {
		return Chunk{}, false
	}
	s.ready = false
	c := Chunk{DSN: s.next, Len: MSS}
	s.next += MSS
	return c, true
}

// TestSegmentRoundTripAllocs pins the transport's per-segment cost:
// once warm, sending one segment and receiving its ACK — transmit,
// both links, delivery, ACK generation, scoreboard update and RTO
// re-arm — allocates nothing. (AllocsPerRun reports a whole-number
// average, so the goodput series' one append per virtual second rounds
// away.)
func TestSegmentRoundTripAllocs(t *testing.T) {
	eng := emu.NewEngine()
	var c *Conn
	data := emu.NewLink(eng, emu.LinkConfig{Rate: emu.ConstantRate(100), Delay: emu.ConstantDelay(5 * time.Millisecond)},
		func(p *emu.Packet) { c.DeliverData(p) })
	acks := emu.NewLink(eng, emu.LinkConfig{Rate: emu.ConstantRate(100), Delay: emu.ConstantDelay(5 * time.Millisecond)},
		func(p *emu.Packet) { c.DeliverAck(p) })
	c = NewConn(eng, 1, data, acks, Config{})
	src := &oneShot{}
	c.SetSource(src)
	c.Start()
	roundTrip := func() {
		src.ready = true
		c.Kick()
		eng.RunUntil(eng.Now() + 20*time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	before := c.Stats().BytesAcked
	allocs := testing.AllocsPerRun(1000, roundTrip)
	if acked := c.Stats().BytesAcked - before; acked != 1001*MSS {
		t.Fatalf("%d bytes acked over 1001 round trips, want %d", acked, 1001*MSS)
	}
	if allocs != 0 {
		t.Fatalf("segment+ACK round trip allocates %.0f times, want 0", allocs)
	}
}

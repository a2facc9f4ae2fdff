package emu

import (
	"testing"
	"time"

	"satcell/internal/channel"
)

// The delay line holds one heap entry per link however many packets are
// in flight, and still delivers every packet at its own instant.
func TestDelayLineKeepsOneEntryPerLink(t *testing.T) {
	e := NewEngine()
	var at []time.Duration
	l := NewLink(e, LinkConfig{Rate: ConstantRate(12), Delay: ConstantDelay(50 * time.Millisecond)},
		func(*Packet) { at = append(at, e.Now()) })
	for i := 0; i < 100; i++ {
		l.Send(&Packet{Seq: int64(i), Size: MTU})
	}
	// 1500 B at 12 Mbps serialize in 1 ms: by 40 ms, 40 packets are in
	// the delay line and none delivered.
	e.RunUntil(40 * time.Millisecond)
	if len(at) != 0 || l.line.len() != 40 {
		t.Fatalf("delivered %d, %d in the delay line; want 0 and 40", len(at), l.line.len())
	}
	if e.Pending() != 2 { // the serializer's next finishTx and the line's head
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(at) != 100 {
		t.Fatalf("delivered %d of 100", len(at))
	}
	for i, got := range at {
		if want := time.Duration(i+1)*time.Millisecond + 50*time.Millisecond; got != want {
			t.Fatalf("packet %d delivered at %v, want %v", i, got, want)
		}
	}
}

// loopTrace has three 1 s samples with distinct rates and delays.
func loopTrace() *channel.Trace {
	return &channel.Trace{Network: channel.ATT, Samples: []channel.Sample{
		{At: 0, DownMbps: 10, UpMbps: 1, RTT: 20 * time.Millisecond},
		{At: time.Second, DownMbps: 20, UpMbps: 2, RTT: 40 * time.Millisecond},
		{At: 2 * time.Second, DownMbps: 30, UpMbps: 3, RTT: 60 * time.Millisecond},
	}}
}

// A looped path's cursor must follow time back to the trace start at
// each wrap: the per-packet delay and rate seen across several wraps
// equal a fresh Trace.At lookup at the wrapped instant.
func TestPathLoopCursorFollowsWrap(t *testing.T) {
	tr := loopTrace()
	e := NewEngine()
	type obs struct{ sent, got time.Duration }
	var seen []obs
	p := NewPath(e, tr, PathConfig{Seed: 3, Loop: true}, func(pk *Packet) {
		seen = append(seen, obs{pk.SentAt, e.Now()})
	}, func(*Packet) {})
	// One packet every 300 ms for 7 s crosses the 2 s wrap three times.
	for at := time.Duration(0); at < 7*time.Second; at += 300 * time.Millisecond {
		e.ScheduleAt(at, func() { p.Down.Send(&Packet{Size: MTU}) })
	}
	e.Run()
	if len(seen) != 24 {
		t.Fatalf("delivered %d packets, want 24", len(seen))
	}
	for _, o := range seen {
		s := tr.At(o.sent % tr.Duration())
		tx := time.Duration(float64(MTU*8) / (s.DownMbps * 1e6) * float64(time.Second))
		done := o.sent + tx
		want := done + tr.At(done%tr.Duration()).RTT/2
		if o.got != want {
			t.Fatalf("packet sent at %v delivered at %v, want %v", o.sent, o.got, want)
		}
	}
}

// The cursor answers exactly as Trace.At does, whatever order the
// lookups come in.
func TestCursorMatchesTraceAt(t *testing.T) {
	tr := loopTrace()
	tr.Samples = append(tr.Samples, channel.Sample{At: 2 * time.Second, DownMbps: 31}) // duplicate instant
	c := cursor{s: tr.Samples}
	for _, at := range []time.Duration{-time.Second, 0, time.Second / 2, time.Second, 2 * time.Second,
		5 * time.Second, time.Second / 3, 0, 2*time.Second - 1, time.Second, 0} {
		if got, want := *c.at(at), tr.At(at); got != want {
			t.Fatalf("at %v: cursor %+v, Trace.At %+v", at, got, want)
		}
	}
	var none cursor
	if got := *none.at(time.Second); got != (channel.Sample{}) {
		t.Fatalf("empty trace: %+v, want the zero sample", got)
	}
}

// TestLinkCycleAllocs pins the link's per-packet cost: a
// Send->finishTx->deliver cycle of a reused packet over a trace-driven
// path allocates nothing.
func TestLinkCycleAllocs(t *testing.T) {
	e := NewEngine()
	p := NewPath(e, loopTrace(), PathConfig{Seed: 1, Loop: true}, func(*Packet) {}, func(*Packet) {})
	pkt := &Packet{Size: MTU}
	for i := 0; i < 32; i++ {
		p.Down.Send(pkt)
		e.Run()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.Down.Send(pkt)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Send->finishTx->deliver allocates %.1f times, want 0", allocs)
	}
}

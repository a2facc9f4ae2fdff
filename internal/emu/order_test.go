package emu_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"satcell/internal/emu"
	"satcell/internal/tcp"
)

// Two links' deliveries and a TCP retransmission timeout land on the
// same nanosecond. Same-instant events run in the order their keys were
// taken: link B's second packet left its serializer first, then the
// TCP sender armed its timer, then link A's packet left — so B, RTO, A.
// Link A was built first, and B's packet only reached the head of its
// delay line, and the event heap, when B's first packet was delivered
// 1 ms before, after both other keys were taken.
func TestSameInstantDeliveriesAndRTOKeepKeyOrder(t *testing.T) {
	const land = 1500 * time.Millisecond
	eng := emu.NewEngine()
	var got []string
	record := func(what string) {
		got = append(got, fmt.Sprintf("%s@%v", what, eng.Now()))
	}
	// 1000 B at 8 Mbps serialize in exactly 1 ms.
	link := func(name string, sendAt time.Duration, n int) *emu.Link {
		delay := land - sendAt - time.Duration(n)*time.Millisecond
		return emu.NewLink(eng, emu.LinkConfig{Rate: emu.ConstantRate(8), Delay: emu.ConstantDelay(delay)},
			func(*emu.Packet) { record(name) })
	}
	a := link("A", 700*time.Millisecond, 1)
	b := link("B", 200*time.Millisecond, 2)
	// The TCP sender's segments vanish, so its 1 s initial RTO fires.
	void := emu.NewLink(eng, emu.LinkConfig{}, func(*emu.Packet) {})
	conn := tcp.NewConn(eng, 1, void, void, tcp.Config{OnRTO: func() { record("RTO") }})

	eng.ScheduleAt(200*time.Millisecond, func() {
		b.Send(&emu.Packet{Size: 1000})
		b.Send(&emu.Packet{Size: 1000})
	})
	eng.ScheduleAt(land-time.Second, conn.Start)
	eng.ScheduleAt(700*time.Millisecond, func() { a.Send(&emu.Packet{Size: 1000}) })
	eng.RunUntil(land)

	want := "B@1.499s B@1.5s RTO@1.5s A@1.5s"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("same-instant order %q, want %q", s, want)
	}
}

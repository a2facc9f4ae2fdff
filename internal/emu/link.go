package emu

import (
	"math/rand"
	"time"
)

// MTU is the maximum packet size carried by emulated links, matching the
// Ethernet MTU the field tools observe.
const MTU = 1500

// Packet is the unit of transfer on emulated links. Handler is carried
// opaquely to the receiver; links never inspect it.
type Packet struct {
	Flow    int           // flow identifier, chosen by the transport
	Seq     int64         // transport-assigned sequence number
	Size    int           // bytes on the wire
	SentAt  time.Duration // set by the link when the packet enters the queue
	Payload any           // transport-specific contents
}

// RateFunc returns the instantaneous link capacity in Mbps at virtual
// time t. Returning 0 means the link is in outage.
type RateFunc func(t time.Duration) float64

// ConstantRate returns a RateFunc with a fixed capacity.
func ConstantRate(mbps float64) RateFunc {
	return func(time.Duration) float64 { return mbps }
}

// DelayFunc returns the one-way propagation delay at virtual time t.
type DelayFunc func(t time.Duration) time.Duration

// ConstantDelay returns a fixed propagation delay.
func ConstantDelay(d time.Duration) DelayFunc {
	return func(time.Duration) time.Duration { return d }
}

// LossFunc decides whether a packet is randomly lost on the wire at
// virtual time t (after surviving the queue).
type LossFunc func(t time.Duration, p *Packet) bool

// NoLoss never drops packets.
func NoLoss(time.Duration, *Packet) bool { return false }

// ProbLoss drops packets with probability probAt(t), using r.
func ProbLoss(r *rand.Rand, probAt func(t time.Duration) float64) LossFunc {
	return func(t time.Duration, _ *Packet) bool {
		p := probAt(t)
		return p > 0 && r.Float64() < p
	}
}

// LinkStats counts what happened on a link.
type LinkStats struct {
	Enqueued       int64
	QueueDrops     int64 // droptail discards
	RandomLosses   int64 // wire losses
	Delivered      int64
	DeliveredBytes int64
}

// LinkConfig configures one unidirectional link.
type LinkConfig struct {
	Rate  RateFunc
	Delay DelayFunc
	Loss  LossFunc
	// QueueBytes is the droptail buffer limit. Zero means the default
	// (a generous 400 kB, in line with the deep buffers of real access
	// links).
	QueueBytes int
}

// outagePollInterval is how long a link waits before re-checking the
// rate when capacity is (near) zero.
const outagePollInterval = 20 * time.Millisecond

// minRateMbps guards the serialization-time computation against a zero
// rate; anything below this is treated as outage.
const minRateMbps = 0.01

// Link is a unidirectional trace-shaped pipe: droptail queue -> variable
// rate serializer -> random loss gate -> propagation delay -> receiver.
//
// A link owns a packet from Send until it passes the packet to its
// deliver callback, and never touches it after that: the receiver may
// reuse it, even from inside the callback. A packet Send rejects stays
// with the caller.
type Link struct {
	eng     *Engine
	cfg     LinkConfig
	deliver func(*Packet)

	queue        ring[*Packet]
	queueBytes   int
	busy         bool
	line         ring[flight]  // serialized packets in propagation, FIFO
	lastDelivery time.Duration // enforces FIFO across varying delay
	stats        LinkStats

	// Event callbacks, bound once so scheduling allocates nothing.
	serveFn, finishFn, deliverFn func()
}

// flight is a packet in the delay line with the event key its delivery
// reserved when it left the serializer.
type flight struct {
	at  time.Duration
	seq uint64
	p   *Packet
}

// NewLink creates a link inside eng delivering packets to deliver.
func NewLink(eng *Engine, cfg LinkConfig, deliver func(*Packet)) *Link {
	if cfg.Rate == nil {
		cfg.Rate = ConstantRate(100)
	}
	if cfg.Delay == nil {
		cfg.Delay = ConstantDelay(0)
	}
	if cfg.Loss == nil {
		cfg.Loss = NoLoss
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = 400 * 1024
	}
	l := &Link{eng: eng, cfg: cfg, deliver: deliver}
	l.serveFn, l.finishFn, l.deliverFn = l.serveNext, l.finishTx, l.deliverHead
	return l
}

// Stats returns the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueBytes returns the bytes currently waiting in the buffer.
func (l *Link) QueueBytes() int { return l.queueBytes }

// Send enqueues a packet, applying droptail when the buffer is full.
// It reports whether the packet was accepted.
func (l *Link) Send(p *Packet) bool {
	if l.queueBytes+p.Size > l.cfg.QueueBytes {
		l.stats.QueueDrops++
		return false
	}
	p.SentAt = l.eng.Now()
	l.queue.push(p)
	l.queueBytes += p.Size
	l.stats.Enqueued++
	if !l.busy {
		l.busy = true
		l.serveNext()
	}
	return true
}

// serveNext begins transmitting the head-of-line packet.
func (l *Link) serveNext() {
	if l.queue.len() == 0 {
		l.busy = false
		return
	}
	rate := l.cfg.Rate(l.eng.Now())
	if rate < minRateMbps {
		// Outage: hold the queue and poll for capacity to return.
		l.eng.Schedule(outagePollInterval, l.serveFn)
		return
	}
	p := *l.queue.front()
	txTime := time.Duration(float64(p.Size*8) / (rate * 1e6) * float64(time.Second))
	l.eng.Schedule(txTime, l.finishFn)
}

// finishTx completes the serialization of the head-of-line packet,
// applies the loss gate, and hands the packet to the delay line.
//
// Deliveries are FIFO, so the delay line keeps only its head in the
// event heap. Each packet still reserves its event key here, where a
// per-packet delivery event used to be scheduled, so deliveries run in
// exactly the order, relative to every other event of the same
// instant, that one heap entry per packet gave.
func (l *Link) finishTx() {
	p := l.queue.pop()
	l.queueBytes -= p.Size
	now := l.eng.Now()
	if l.cfg.Loss(now, p) {
		l.stats.RandomLosses++
	} else {
		// A shrinking delay must not reorder packets: deliver no
		// earlier than the previous delivery (FIFO pipe semantics).
		at := now + l.cfg.Delay(now)
		if at < l.lastDelivery {
			at = l.lastDelivery
		}
		l.lastDelivery = at
		seq := l.eng.Reserve()
		if l.line.len() == 0 {
			l.eng.ScheduleKeyed(at, seq, l.deliverFn)
		}
		l.line.push(flight{at: at, seq: seq, p: p})
	}
	l.serveNext()
}

// deliverHead hands the delay line's head to the receiver and queues
// the next packet's delivery under the key it reserved.
func (l *Link) deliverHead() {
	p := l.line.pop().p
	if l.line.len() > 0 {
		next := l.line.front()
		l.eng.ScheduleKeyed(next.at, next.seq, l.deliverFn)
	}
	l.stats.Delivered++
	l.stats.DeliveredBytes += int64(p.Size)
	l.deliver(p)
}

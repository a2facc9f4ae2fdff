package emu

import (
	"math/rand"
	"time"

	"satcell/internal/channel"
)

// Path is a bidirectional emulated network path built from a channel
// trace: the downlink and uplink are independently shaped links whose
// rate, delay and loss follow the replayed samples, exactly as MpShell
// replays the paper's driving traces (§6).
type Path struct {
	Trace *channel.Trace
	Down  *Link
	Up    *Link

	// cur serves both links' sample lookups. It lives here, not in the
	// trace, because one trace is replayed by many paths at once.
	cur cursor
}

// PathConfig tunes the trace replay.
type PathConfig struct {
	// QueueBytes is the droptail buffer of each direction (0 = default).
	QueueBytes int
	// Seed drives the stochastic loss gates.
	Seed int64
	// Loop repeats the trace when the simulation runs past its end;
	// otherwise conditions freeze at the final sample.
	Loop bool
}

// NewPath builds a Path inside eng replaying tr. deliverDown receives
// packets sent through the downlink (server -> client), deliverUp those
// sent through the uplink (client -> server).
func NewPath(eng *Engine, tr *channel.Trace, cfg PathConfig, deliverDown, deliverUp func(*Packet)) *Path {
	p := &Path{Trace: tr, cur: cursor{s: tr.Samples}}
	at := func(t time.Duration) *channel.Sample {
		if cfg.Loop {
			if d := tr.Duration(); d > 0 {
				t = t % d
			}
		}
		return p.cur.at(t)
	}
	rngDown := rand.New(rand.NewSource(cfg.Seed*2 + 1))
	rngUp := rand.New(rand.NewSource(cfg.Seed*2 + 2))

	p.Down = NewLink(eng, LinkConfig{
		Rate:  func(t time.Duration) float64 { return at(t).DownMbps },
		Delay: func(t time.Duration) time.Duration { return at(t).RTT / 2 },
		Loss: ProbLoss(rngDown, func(t time.Duration) float64 {
			return at(t).LossDown
		}),
		QueueBytes: cfg.QueueBytes,
	}, deliverDown)

	p.Up = NewLink(eng, LinkConfig{
		Rate:  func(t time.Duration) float64 { return at(t).UpMbps },
		Delay: func(t time.Duration) time.Duration { return at(t).RTT / 2 },
		Loss: ProbLoss(rngUp, func(t time.Duration) float64 {
			return at(t).LossUp
		}),
		QueueBytes: cfg.QueueBytes,
	}, deliverUp)

	return p
}

// BaseRTTAt returns the unloaded round-trip time of the path at t.
func (p *Path) BaseRTTAt(t time.Duration) time.Duration { return p.Trace.At(t).RTT }

// cursor looks up the sample in effect at t with channel.Trace.At's
// semantics, for samples in time order. Links ask at the engine's
// current time, which never decreases, so the cursor remembers where
// the last answer was and walks forward from there: amortized O(1) per
// lookup with no copy of the sample, where Trace.At binary-searches and
// returns a copy. When time moves back (a looped trace wrapping) it
// walks again from the start.
type cursor struct {
	s []channel.Sample
	i int
}

// empty is what a lookup on a sample-less trace returns, as Trace.At
// returns the zero Sample.
var empty channel.Sample

func (c *cursor) at(t time.Duration) *channel.Sample {
	s := c.s
	if len(s) == 0 {
		return &empty
	}
	if t <= s[0].At {
		c.i = 0
		return &s[0]
	}
	if t < s[c.i].At {
		c.i = 0
	}
	for c.i+1 < len(s) && s[c.i+1].At <= t {
		c.i++
	}
	return &s[c.i]
}

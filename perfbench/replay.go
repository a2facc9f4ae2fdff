package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"satcell/internal/channel"
	"satcell/internal/core"
	"satcell/internal/dataset"
	"satcell/internal/emu"
	"satcell/internal/mptcp"
	"satcell/internal/obs"
	"satcell/internal/stats"
	"satcell/internal/tcp"
	"satcell/internal/trace"
)

// replayScale sizes the dataset the replay windows are cut from.
const replayScale = 0.05

// replayDatasetSeed fixes the dataset the replay windows are cut from
// to the calibrated campaign. A replay's cost follows the capacity of
// the window it replays: over datasets of seeds 1-5 one pass took
// 12-27 s instead of seed 42's 6 s, a spread that would bury any change
// in the emulator's speed. The workload seed still seeds the replays
// (Analyzer.Seed), but the replay traces carry no random loss, so the
// emulator never draws from those streams and every seed replays the
// same packets.
const replayDatasetSeed = defaultSeed

// replayCfg is fig10's and fig11's configuration: one 30 s aligned
// window each. The buffers, queue and scheduler are the package
// defaults, spelled out because the probe rebuilds the same replays.
var replayCfg = core.MultipathConfig{
	WindowSeconds: 30,
	Windows:       1,
	TunedBuf:      20 << 20,
	UntunedBuf:    2 << 20,
	QueueBytes:    3 << 20 / 2,
	Scheduler:     func() mptcp.Scheduler { return mptcp.NewBLEST() },
}

// replayLoad is the §6 packet-level replay: Figure10 then Figure11 on
// an Analyzer over a small dataset, 12 replays through emu, the vclock
// event heap, tcp and mptcp, with no disk I/O.
type replayLoad struct {
	seed int64
	a    *core.Analyzer
}

func (r *replayLoad) setup(ctx context.Context) error {
	ds, err := dataset.GenerateContext(ctx, dataset.Config{Seed: replayDatasetSeed, Scale: replayScale, Workers: workers})
	if err != nil {
		return err
	}
	r.a = core.NewAnalyzer(ds)
	r.a.Seed = r.seed
	return nil
}

func (r *replayLoad) pass(ctx context.Context, p *pass) error {
	var sp *spans
	if p.traced {
		sp = newSpans("replay")
	}
	var f10, f11 *core.Figure
	err := p.measure(func() error {
		sp.around("fig10", func(*obs.Span) error {
			f10 = r.a.Figure10(replayCfg)
			return nil
		})
		return sp.around("fig11", func(*obs.Span) error {
			f11 = r.a.Figure11(replayCfg)
			return nil
		})
	})
	if err != nil {
		return err
	}

	ops := p.ops
	bad := 0
	for _, k := range probeKPIs {
		f := f10
		if k.fig == "fig11" {
			f = f11
		}
		v, ok := f.KPIs[k.kpi]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			bad++
		}
	}
	ops.add(len(probeKPIs), bad, "replays")
	d10, d11 := csvDigest(f10), csvDigest(f11)
	ops.check(d10 == goldenFig10, "fig10 digest %s, pinned %s", d10, goldenFig10)
	ops.check(d11 == goldenFig11, "fig11 digest %s, pinned %s", d11, goldenFig11)
	if !p.traced {
		return nil
	}

	secs, err := sp.seconds()
	if err != nil {
		return err
	}
	p.layers["core.fig10_s"] = secs["fig10"]
	p.layers["core.fig11_s"] = secs["fig11"]
	return r.probe(ops, p.layers, f10, f11)
}

// probeKPI names one replay of fig10/fig11: the figure KPI holding its
// goodput, the paths it runs over (indices into the aligned window:
// 0 MOB, 1 ATT, 2 VZ), whether an MPTCP run gets the tuned receive
// buffer, and its seed offset from the dataset seed.
type probeKPI struct {
	fig, kpi string
	paths    []int
	tuned    bool
	seedOff  int64
}

// probeKPIs mirrors core's Figure10 (window 0: seeds 1-10) and
// Figure11 (seeds 7001-7006).
var probeKPIs = []probeKPI{
	{"fig10", "mean_ATT", []int{1}, false, 1},
	{"fig10", "mean_VZ", []int{2}, false, 2},
	{"fig10", "mean_MOB", []int{0}, false, 3},
	{"fig10", "mean_MOB+ATT", []int{0, 1}, true, 4},
	{"fig10", "mean_MOB+VZ", []int{0, 2}, true, 6},
	{"fig10", "mean_MOB+ATT-untuned", []int{0, 1}, false, 8},
	{"fig10", "mean_MOB+VZ-untuned", []int{0, 2}, false, 10},
	{"fig11", "mean_MOB(a)", []int{0}, false, 7001},
	{"fig11", "mean_ATT(a)", []int{1}, false, 7002},
	{"fig11", "mean_MPTCP(a)", []int{0, 1}, true, 7003},
	{"fig11", "mean_VZ(b)", []int{2}, false, 7005},
	{"fig11", "mean_MPTCP(b)", []int{0, 2}, true, 7006},
}

// probeStats accumulates what the probe's replays did, layer by layer.
type probeStats struct {
	replays                 int
	emuRun, mptcpRun        time.Duration
	virtual                 time.Duration
	packets, drops          int64
	pendingPeak             int
	segments, retrans, rtos int64
	mpBytes                 int64
	mpGoodputSum            float64
	mpRuns                  int
}

// probe replays fig10's and fig11's 12 runs a second time through the
// public emu, tcp and mptcp constructors, stepping the engine in 100 ms
// virtual chunks to sample its event heap, and reads each layer's
// counters. It rebuilds the aligned window the figures replay, so every
// goodput must equal the figure's KPI exactly: then the probe measured
// the same replays the untraced passes time.
func (r *replayLoad) probe(ops *tally, m map[string]float64, f10, f11 *core.Figure) error {
	win := time.Duration(replayCfg.WindowSeconds) * time.Second
	window, err := alignedWindow(r.a.DS, win)
	if err != nil {
		return err
	}
	var st probeStats
	for _, k := range probeKPIs {
		var trs []*channel.Trace
		for _, i := range k.paths {
			trs = append(trs, window[i])
		}
		buf := replayCfg.UntunedBuf
		if k.tuned {
			buf = replayCfg.TunedBuf
		}
		got := replayOnce(trs, buf, r.a.Seed+k.seedOff, win, &st)
		want := f10.KPI(k.kpi)
		if k.fig == "fig11" {
			want = f11.KPI(k.kpi)
		}
		ops.check(got == want, "probe %s %s goodput %v Mbps, figure reports %v", k.fig, k.kpi, got, want)
	}

	runS := st.emuRun.Seconds()
	m["emu.replays"] = float64(st.replays)
	m["emu.run_s"] = runS
	m["emu.packets"] = float64(st.packets)
	m["emu.packets_per_s"] = ratio(float64(st.packets), runS)
	m["emu.queue_drops"] = float64(st.drops)
	m["emu.sim_x"] = ratio(st.virtual.Seconds(), runS)
	m["vclock.pending_peak"] = float64(st.pendingPeak)
	m["tcp.segments"] = float64(st.segments)
	m["tcp.retransmits"] = float64(st.retrans)
	m["tcp.rtos"] = float64(st.rtos)
	m["tcp.retrans_ratio"] = ratio(float64(st.retrans), float64(st.segments))
	m["mptcp.run_s"] = st.mptcpRun.Seconds()
	m["mptcp.bytes_delivered"] = float64(st.mpBytes)
	m["mptcp.goodput_mbps"] = ratio(st.mpGoodputSum, float64(st.mpRuns))
	return nil
}

// replayOnce runs one download over trs — single-path TCP for one
// trace, MPTCP with receive buffer buf for several — exactly as core's
// multipath replays do, and returns its mean goodput in Mbps.
func replayOnce(trs []*channel.Trace, buf int, seed int64, dur time.Duration, st *probeStats) float64 {
	eng := emu.NewEngine()
	paths := make([]*emu.DuplexPath, len(trs))
	for i, tr := range trs {
		paths[i] = emu.NewDuplexPath(eng, tr, emu.PathConfig{Seed: seed + int64(i), QueueBytes: replayCfg.QueueBytes})
	}
	var single *tcp.Conn
	var mp *mptcp.Conn
	var subflows []*tcp.Conn
	if len(trs) == 1 {
		single = tcp.NewDownload(eng, paths[0], 1, tcp.Config{})
		single.Start()
		subflows = []*tcp.Conn{single}
	} else {
		mp = mptcp.NewConn(eng, paths, 100, mptcp.Config{RcvBuf: buf, Scheduler: replayCfg.Scheduler()})
		mp.Start()
		subflows = mp.Subflows()
	}

	t0 := time.Now()
	for t := time.Duration(0); t < dur; {
		t = min(t+100*time.Millisecond, dur)
		eng.RunUntil(t)
		st.pendingPeak = max(st.pendingPeak, eng.Pending())
	}
	run := time.Since(t0)
	var mbps float64
	if mp == nil {
		single.Stop()
		mbps = single.MeanGoodputMbps(dur)
	} else {
		mp.Stop()
		mbps = mp.MeanGoodputMbps(dur)
	}

	st.replays++
	st.emuRun += run
	st.virtual += dur
	for _, p := range paths {
		for _, l := range []*emu.Link{p.Down, p.Up} {
			ls := l.Stats()
			st.packets += ls.Enqueued
			st.drops += ls.QueueDrops
		}
	}
	for _, c := range subflows {
		cs := c.Stats()
		st.segments += cs.SegmentsSent
		st.retrans += cs.Retransmits
		st.rtos += cs.RTOs
	}
	if mp != nil {
		st.mptcpRun += run
		st.mpBytes += mp.BytesDelivered()
		st.mpGoodputSum += mbps
		st.mpRuns++
	}
	return mbps
}

// alignedWindow finds the first window fig10 and fig11 replay: walking
// the drives in order, windows of length win spaced 60 s apart, the
// first whose MOB, ATT and VZ replay traces are all usable, else the
// first window seen.
func alignedWindow(ds *dataset.Dataset, win time.Duration) ([]*channel.Trace, error) {
	need := []channel.NetworkID{channel.StarlinkMobility, channel.ATT, channel.Verizon}
	var fallback []*channel.Trace
	for di := range ds.Drives {
		d := &ds.Drives[di]
		dur := time.Duration(len(d.Fixes)) * time.Second
		for off := time.Duration(0); off+win <= dur; off += win + 60*time.Second {
			var ws []*channel.Trace
			for _, n := range need {
				ws = append(ws, replayTrace(d.Trace(n).Slice(off, off+win)))
			}
			aligned := trace.Align(ws...)
			if windowUsable(aligned) {
				return aligned, nil
			}
			if fallback == nil {
				fallback = aligned
			}
		}
	}
	if fallback == nil {
		return nil, fmt.Errorf("replay: no aligned window in the dataset")
	}
	return fallback, nil
}

// replayTrace is the MpShell replay form of a measured trace: capacity
// and RTT kept, random loss and bursts stripped, outage seconds holding
// the last known RTT.
func replayTrace(tr *channel.Trace) *channel.Trace {
	out := &channel.Trace{Network: tr.Network}
	lastRTT := 50 * time.Millisecond
	for _, s := range tr.Samples {
		s.LossDown, s.LossUp = 0, 0
		s.Burst = false
		if s.RTT == 0 {
			s.RTT = lastRTT
		}
		lastRTT = s.RTT
		out.Samples = append(out.Samples, s)
	}
	return out
}

// windowUsable is the replay's usability rule: at most 20% outage on
// every path, and a Starlink mean capacity between 50 and 250 Mbps.
func windowUsable(ws []*channel.Trace) bool {
	for i, tr := range ws {
		outage := 0
		for _, s := range tr.Samples {
			if s.Outage || s.DownMbps < 1 {
				outage++
			}
		}
		if len(tr.Samples) == 0 || float64(outage)/float64(len(tr.Samples)) > 0.2 {
			return false
		}
		if i == 0 {
			if mean := stats.Mean(tr.DownSeries()); mean < 50 || mean > 250 {
				return false
			}
		}
	}
	return true
}

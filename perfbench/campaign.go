package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"satcell/internal/campaign"
	"satcell/internal/obs"
	"satcell/internal/store"
)

const (
	// campaignScale is the calibrated operating point.
	campaignScale = 0.3
	// warmupScale sizes the set-up campaign.
	warmupScale = 0.05
)

// campaignLoad is the write path: one supervised campaign.Run into a
// fresh run directory — generation, shard export and fsynced journals,
// then verify, streaming analysis and render reading it back.
type campaignLoad struct {
	seed int64
	work string
	runs int
	// first holds the first pass's data/ and figures/ digests.
	firstData, firstFigs string
}

// nextDir names a run directory no earlier pass used.
func (c *campaignLoad) nextDir() string {
	c.runs++
	return filepath.Join(c.work, fmt.Sprintf("campaign-%d", c.runs))
}

// setup runs one small campaign: the workload's input is just a seed
// and an empty directory, so set-up is the warm-up that keeps the first
// timed pass from paying for a cold process.
func (c *campaignLoad) setup(ctx context.Context) error {
	dir := c.nextDir()
	res, err := campaign.Run(ctx, campaign.Config{Dir: dir, Seed: c.seed, Scale: warmupScale, Workers: workers})
	if err != nil {
		return err
	}
	if code := res.ExitCode(); code != 0 {
		return fmt.Errorf("warm-up campaign exit code %d: %s", code, res.Completeness.String())
	}
	return os.RemoveAll(dir)
}

func (c *campaignLoad) pass(ctx context.Context, p *pass) error {
	dir := c.nextDir()
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	cfg := campaign.Config{Dir: dir, Seed: c.seed, Scale: campaignScale, Workers: workers, Metrics: reg}
	var cfs *countingFS
	if p.traced {
		cfs = newCountingFS(store.OS())
		cfg.FS = cfs
	}
	var res *campaign.Result
	if err := p.measure(func() (err error) {
		res, err = campaign.Run(ctx, cfg)
		return err
	}); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}

	ops := p.ops
	ops.add(len(campaign.Stages)+res.Retries, res.Retries, "stage attempts")
	ops.add(int(reg.Counter("dataset.drive_units_done").Value()), len(res.Completeness.Gen), "drive units")
	if st := res.Completeness.Stream; st != nil {
		ops.add(st.ShardsPlanned, st.ShardsQuarantined, "analysis shards")
	}
	ops.check(res.Completeness.Complete(), "campaign completeness: %s", res.Completeness.String())
	rep, err := store.Fsck(res.DataDir)
	if err != nil {
		return err
	}
	ops.check(rep.OK(), "fsck of the campaign's data: %s", rep)
	checkStreamFigures(ops, res.Figures)
	data, err := store.DigestDir(res.DataDir)
	if err != nil {
		return err
	}
	figs, err := store.DigestDir(res.FiguresDir)
	if err != nil {
		return err
	}
	sameAsFirst(ops, &c.firstData, data, "data/")
	sameAsFirst(ops, &c.firstFigs, figs, "figures/")
	checkGolden(ops, c.seed, data, goldenCampaignData, "data/")
	checkGolden(ops, c.seed, figs, goldenCampaignFigures, "figures/")
	if c.seed == defaultSeed {
		checkBands(ops, res.Figures, goldenBands)
	}
	if !p.traced {
		return nil
	}
	return c.layers(p, dir, reg, cfs, rep)
}

// layers reads a traced pass's per-layer numbers back: stage times
// from the TELEMETRY spans, counters from the registry, I/O from the
// counting filesystem.
func (c *campaignLoad) layers(p *pass, dir string, reg *obs.Registry, cfs *countingFS, rep *store.FsckReport) error {
	_, log, err := campaign.ReadTelemetry(nil, dir)
	if err != nil {
		return err
	}
	sum := obs.Summarize(log)
	if len(sum.Runs) != 1 {
		return fmt.Errorf("campaign telemetry holds %d runs, want 1", len(sum.Runs))
	}
	m := p.layers
	staged := 0.0
	attempts := 0
	for _, st := range sum.Runs[0].Stages {
		s := (time.Duration(st.DurationUS) * time.Microsecond).Seconds()
		m["campaign."+st.Stage+"_s"] = s
		staged += s
		attempts += st.Attempts
	}
	m["campaign.supervisor_s"] = p.cost.wall.Seconds() - staged
	m["campaign.stage_attempts"] = float64(attempts)
	m["campaign.stage_retries"] = float64(reg.Counter("campaign.stage_retries").Value())

	counter := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	m["dataset.samples"] = counter("dataset.samples_done")
	m["dataset.tests"] = counter("dataset.tests_done")
	m["dataset.units"] = counter("dataset.drive_units_done")
	m["dataset.samples_per_s"] = ratio(m["dataset.samples"], m["campaign.generate_s"])
	m["dataset.unit_retries"] = counter("dataset.unit_retries")
	m["dataset.quarantined"] = counter("dataset.drives_quarantined")

	cfs.writeLayers(m)
	cfs.readLayers(m)
	m["store.fsck_s"] = m["campaign.verify_s"]
	m["store.fsck_rows_per_s"] = ratio(float64(rep.RowsChecked), m["store.fsck_s"])
	streamLayers(m, reg, m["campaign.analyze_s"])
	return nil
}

// streamLayers reports the streaming analyzer's registry counters over
// a stream phase of streamS seconds.
func streamLayers(m map[string]float64, reg *obs.Registry, streamS float64) {
	m["core.stream_s"] = streamS
	m["core.stream_rows"] = float64(reg.Counter("stream.rows_done").Value())
	m["core.stream_shards"] = float64(reg.Counter("stream.shards_done").Value())
	m["core.rows_per_s"] = ratio(m["core.stream_rows"], streamS)
	m["core.stream_retries"] = float64(reg.Counter("stream.retries").Value())
	m["core.quarantined"] = float64(reg.Counter("stream.quarantined").Value())
}

package main

import (
	"context"
	"fmt"
	"os"

	"satcell/internal/core"
	"satcell/internal/dataset"
	"satcell/internal/obs"
	"satcell/internal/store"
)

// reanalyzeScale is the paper's full campaign, 3x the campaign
// workload's corpus.
const reanalyzeScale = 1.0

// reanalyzeLoad is the read-only path: fsck, streaming analysis and
// figure building over a store exported during set-up. Nothing is
// generated or written in the timed phase.
type reanalyzeLoad struct {
	seed  int64
	dir   string
	first string
}

func (r *reanalyzeLoad) setup(ctx context.Context) error {
	if err := os.RemoveAll(r.dir); err != nil {
		return err
	}
	ds, err := dataset.GenerateContext(ctx, dataset.Config{Seed: r.seed, Scale: reanalyzeScale, Workers: workers})
	if err != nil {
		return err
	}
	_, err = store.ExportDatasetContext(ctx, r.dir, ds, store.ExportOptions{Seed: ds.Seed, Scale: reanalyzeScale})
	return err
}

func (r *reanalyzeLoad) pass(ctx context.Context, p *pass) error {
	reg := obs.NewRegistry()
	var fsys store.FS
	var cfs *countingFS
	var sp *spans
	if p.traced {
		cfs = newCountingFS(store.OS())
		fsys = cfs
		sp = newSpans("reanalyze")
	}
	var rep *store.FsckReport
	var sa *core.StreamAnalysis
	var figs map[string]*core.Figure
	err := p.measure(func() error {
		if err := sp.around("fsck", func(*obs.Span) (err error) {
			rep, err = store.FsckFS(fsys, r.dir)
			return err
		}); err != nil {
			return err
		}
		if err := sp.around("stream", func(span *obs.Span) error {
			src, err := core.OpenStoreSourceFS(fsys, r.dir, store.Lenient)
			if err != nil {
				return err
			}
			sa, err = core.StreamAnalyzeContext(ctx, src, core.StreamOptions{Workers: workers, Metrics: reg, Span: span})
			return err
		}); err != nil {
			return err
		}
		return sp.around("figures", func(*obs.Span) error {
			figs = sa.Figures()
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("reanalyze: %w", err)
	}

	ops := p.ops
	comp := sa.Completeness()
	ops.add(comp.ShardsPlanned, comp.ShardsQuarantined, "analysis shards")
	ops.check(comp.Complete(), "stream completeness: %s", comp)
	ops.check(rep.OK(), "fsck: %s", rep)
	checkStreamFigures(ops, figs)
	digest := figuresDigest(figs)
	sameAsFirst(ops, &r.first, digest, "figures")
	checkGolden(ops, r.seed, digest, goldenReanalyzeFigures, "figures")
	if r.seed == defaultSeed {
		checkBands(ops, figs, goldenBands)
	}
	if !p.traced {
		return nil
	}

	secs, err := sp.seconds()
	if err != nil {
		return err
	}
	m := p.layers
	cfs.readLayers(m)
	m["store.fsck_s"] = secs["fsck"]
	m["store.fsck_rows_per_s"] = ratio(float64(rep.RowsChecked), secs["fsck"])
	streamLayers(m, reg, secs["stream"])
	m["core.figures_s"] = secs["figures"]
	return nil
}

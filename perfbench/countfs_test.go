package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"satcell/internal/campaign"
	"satcell/internal/store"
)

// keepRemoved is a store.FS whose Remove moves a file into attic
// instead of deleting it, so a test can still weigh every byte the
// store ever wrote — the export's checkpoint and the lockfile included.
type keepRemoved struct {
	store.FS
	attic string
	n     int
}

func (k *keepRemoved) Remove(name string) error {
	k.n++
	dir := filepath.Join(k.attic, strconv.Itoa(k.n))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	return os.Rename(name, filepath.Join(dir, filepath.Base(name)))
}

// TestCountingFSMatchesDisk runs a small campaign through the counting
// filesystem and checks its counters against what is on disk: bytes
// written equal the sizes of every file the run left (data/, figures/,
// journals, plus the retired checkpoint and lockfile), and the fsyncs
// are exactly the store's durability protocol — one per journal
// append, file plus directory per atomic commit, the lockfile's, and
// the export's closing directory sync.
func TestCountingFSMatchesDisk(t *testing.T) {
	tmp := t.TempDir()
	attic := filepath.Join(tmp, "attic")
	if err := os.Mkdir(attic, 0o755); err != nil {
		t.Fatal(err)
	}
	run := filepath.Join(tmp, "run")
	cfs := newCountingFS(&keepRemoved{FS: store.OS(), attic: attic})
	res, err := campaign.Run(context.Background(), campaign.Config{
		Dir: run, Seed: defaultSeed, Scale: 0.02, Workers: workers, FS: cfs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if code := res.ExitCode(); code != 0 {
		t.Fatalf("campaign exit code %d: %s", code, res.Completeness.String())
	}

	var diskBytes, journalLines, commits int64
	for _, root := range []string{run, attic} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			diskBytes += int64(len(b))
			switch {
			case journalFile(d.Name()):
				journalLines += int64(bytes.Count(b, []byte("\n")))
			case strings.HasPrefix(path, res.DataDir+string(filepath.Separator)),
				strings.HasPrefix(path, res.FiguresDir+string(filepath.Separator)):
				commits++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if commits == 0 || journalLines == 0 {
		t.Fatalf("found %d commits and %d journal lines; the campaign wrote nothing?", commits, journalLines)
	}

	if got := cfs.bytesWritten.Load(); got != diskBytes {
		t.Errorf("bytes written = %d, files on disk hold %d", got, diskBytes)
	}
	if got := cfs.journalAppends.Load(); got != journalLines {
		t.Errorf("journal appends = %d, journals hold %d lines", got, journalLines)
	}
	const lockSync, exportDirSync = 1, 1
	if got, want := cfs.fsyncs.Load(), journalLines+2*commits+lockSync+exportDirSync; got != want {
		t.Errorf("fsyncs = %d, want %d (%d journal appends + 2 x %d commits + lockfile + export dir)",
			got, want, journalLines, commits)
	}
	const journals, lockfile = 3, 1 // CAMPAIGN, TELEMETRY, CHECKPOINT
	if got, want := cfs.filesWritten.Load(), commits+journals+lockfile; got != want {
		t.Errorf("files written = %d, want %d", got, want)
	}
	if cfs.bytesRead.Load() == 0 || cfs.filesOpened.Load() == 0 {
		t.Errorf("verify and analyze read %d bytes from %d files; want both > 0",
			cfs.bytesRead.Load(), cfs.filesOpened.Load())
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps BENCHMARK.json's metric
// lists and the names and units the program prints in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, table []metricDef, listed []struct{ Name, Unit string }) {
		if len(table) != len(listed) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", what, len(table), len(listed))
			return
		}
		for i, m := range table {
			if m.name != listed[i].Name || m.unit != listed[i].Unit {
				t.Errorf("%s[%d]: program prints %s (%s), BENCHMARK.json lists %s (%s)",
					what, i, m.name, m.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
}

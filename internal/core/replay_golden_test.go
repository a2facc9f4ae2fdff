package core

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"satcell/internal/dataset"
)

// Pinned sha256 digests of the §6 replay figures' CSVs at a 30 s x 1
// window config over the seed-42, scale-0.05 dataset. They equal the
// replay benchmark's pinned fig10/fig11 outputs, so any change to the
// event loop, emulated links or transports that moves a single replayed
// byte fails here, in tier-1, not only in the benchmark.
const (
	goldenReplayFig10 = "18796501a9e377a86a39ce89d87fd7a01260f4bffcba6a00dcdfd356e9a5e67b"
	goldenReplayFig11 = "faf5d8562f84512d5e79fb9659148c37dc82428012d76f8b6a28c1f548d0a65f"
)

// The figures run their replays on a GOMAXPROCS-sized pool, so they are
// rendered with one worker and with more workers than they have
// replays: the output must not depend on the pool's size.
func TestReplayFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level replays")
	}
	ds := dataset.Generate(dataset.Config{Seed: 42, Scale: 0.05})
	a := NewAnalyzer(ds)
	cfg := MultipathConfig{WindowSeconds: 30, Windows: 1}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct {
			f    *Figure
			want string
		}{
			{a.Figure10(cfg), goldenReplayFig10},
			{a.Figure11(cfg), goldenReplayFig11},
		} {
			sum := sha256.Sum256([]byte(c.f.CSV()))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("GOMAXPROCS %d: %s CSV digest %s, pinned %s\n%s", procs, c.f.ID, got, c.want, c.f.CSV())
			}
		}
	}
}

func TestReplayAllReraisesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "replay 3 failed" {
			t.Fatalf("recovered %v, want the replay's panic", r)
		}
	}()
	jobs := make([]func() MultipathRun, 6)
	for i := range jobs {
		jobs[i] = func() MultipathRun {
			if i == 3 {
				panic("replay 3 failed")
			}
			return MultipathRun{Mbps: float64(i)}
		}
	}
	replayAll(jobs)
	t.Fatal("replayAll returned despite a panicking replay")
}

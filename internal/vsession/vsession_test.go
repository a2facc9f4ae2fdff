package vsession

import (
	"strings"
	"testing"
	"time"

	"satcell/internal/faults"
	"satcell/internal/netem"
)

func faultedConfig() Config {
	sched := &faults.Schedule{
		Blackouts: []faults.Window{{Start: 5 * time.Second, Dur: 2 * time.Second}},
		Restarts:  []faults.Window{{Start: 12 * time.Second, Dur: 1 * time.Second}},
	}
	return Config{
		Paths: []PathSpec{{
			Name:   "leo",
			Down:   netem.ConstantShape(20, 25*time.Millisecond, 0.001),
			Up:     netem.ConstantShape(5, 25*time.Millisecond, 0.001),
			Faults: sched,
		}},
		Duration: 30 * time.Second,
		Seed:     42,
	}
}

// The tentpole acceptance: a full session with fault windows completes
// in well under a second of wall time, and three runs produce
// byte-identical per-second series (same digest, same CSV).
func TestRunDeterministicAcrossRepeats(t *testing.T) {
	start := time.Now()
	first, err := Run(faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("30s virtual session took %v wall, want < 1s", wall)
	}
	for i := 0; i < 2; i++ {
		again, err := Run(faultedConfig())
		if err != nil {
			t.Fatal(err)
		}
		if again.Digest != first.Digest {
			t.Fatalf("run %d digest %s != first %s\nfirst:\n%s\nagain:\n%s",
				i+2, again.Digest, first.Digest, first.CSV(), again.CSV())
		}
		if again.CSV() != first.CSV() {
			t.Fatalf("run %d CSV differs with equal digests (hash collision?)", i+2)
		}
	}
	if len(first.Seconds) != 30 {
		t.Fatalf("got %d rows, want 30", len(first.Seconds))
	}
	if first.Bytes == 0 {
		t.Fatal("session delivered no bytes")
	}
}

// A different seed must replay a different session — the digest is a
// session identity, not a constant.
func TestRunSeedChangesDigest(t *testing.T) {
	a, err := Run(faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultedConfig()
	cfg.Seed = 43
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatalf("seeds 42 and 43 produced the same digest %s", a.Digest)
	}
}

// Fault windows must bite: the blackout seconds carry (near) zero
// goodput and a DownFrac of 1, while clear seconds flow.
func TestRunBlackoutStallsGoodput(t *testing.T) {
	res, err := Run(faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int]Second{}
	for _, s := range res.Seconds {
		rows[s.T] = s
	}
	// Second 7 covers 6s..7s, fully inside the 5s..7s blackout.
	if got := rows[7].DownFrac; got < 0.99 {
		t.Fatalf("second 7 DownFrac = %.3f, want ~1 (blackout 5s..7s)", got)
	}
	if rows[7].Mbps > 1 {
		t.Fatalf("second 7 goodput %.2f Mbps during blackout, want ~0", rows[7].Mbps)
	}
	// Second 13 covers 12s..13s, inside the restart window.
	if got := rows[13].DownFrac; got < 0.99 {
		t.Fatalf("second 13 DownFrac = %.3f, want ~1 (restart 12s..13s)", got)
	}
	// Steady state well clear of both windows must actually flow.
	if rows[25].Mbps < 5 {
		t.Fatalf("second 25 goodput %.2f Mbps in the clear, want > 5", rows[25].Mbps)
	}
	if rows[25].DownFrac != 0 {
		t.Fatalf("second 25 DownFrac = %.3f, want 0", rows[25].DownFrac)
	}
}

// MPTCP replay: two paths with disjoint fault windows run an MPTCP
// session that is deterministic across runs and outperforms the faulty
// single path, because the scheduler shifts load to the surviving
// subflow during each window.
func TestRunMPTCPReplayDeterministic(t *testing.T) {
	a, err := Run(twoPathConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(twoPathConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("MPTCP replay diverged:\n%s\nvs\n%s", a.CSV(), b.CSV())
	}
	rows := map[int]Second{}
	for _, s := range a.Seconds {
		rows[s.T] = s
	}
	// During the leo blackout (second 7 covers 6s..7s) the cell subflow
	// keeps the connection moving.
	if rows[7].Mbps < 1 {
		t.Fatalf("second 7 goodput %.2f Mbps; cell subflow should carry through the leo blackout", rows[7].Mbps)
	}
	// DownFrac averages across paths: one of two paths down = 0.5.
	if got := rows[7].DownFrac; got < 0.49 || got > 0.51 {
		t.Fatalf("second 7 DownFrac = %.3f, want 0.5", got)
	}
}

// twoPathConfig is an MPTCP session over a leo path with a blackout and
// a fault-free cellular path.
func twoPathConfig() Config {
	return Config{
		Paths: []PathSpec{
			{
				Name:   "leo",
				Down:   netem.ConstantShape(20, 25*time.Millisecond, 0.001),
				Up:     netem.ConstantShape(5, 25*time.Millisecond, 0.001),
				Faults: &faults.Schedule{Blackouts: []faults.Window{{Start: 5 * time.Second, Dur: 3 * time.Second}}},
			},
			{
				Name: "cell",
				Down: netem.ConstantShape(10, 40*time.Millisecond, 0.002),
				Up:   netem.ConstantShape(3, 40*time.Millisecond, 0.002),
			},
		},
		Duration: 20 * time.Second,
		Seed:     7,
	}
}

func TestRunRequiresAPath(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run with no paths succeeded")
	}
}

func TestCSVShape(t *testing.T) {
	cfg := faultedConfig()
	cfg.Duration = 3 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(res.CSV(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header + 3 rows:\n%s", len(lines), res.CSV())
	}
	if lines[0] != "t,mbps,rtt_ms,probes,lost,down_frac" {
		t.Fatalf("unexpected header %q", lines[0])
	}
}

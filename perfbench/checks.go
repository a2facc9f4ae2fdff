package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"satcell/internal/core"
	"satcell/internal/obs"
)

// figuresDigest hashes a figure set's CSVs in id order.
func figuresDigest(figs map[string]*core.Figure) string {
	h := sha256.New()
	for _, id := range core.FigureIDs(figs) {
		fmt.Fprintf(h, "figure %s\n", id)
		io.WriteString(h, figs[id].CSV())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func csvDigest(f *core.Figure) string {
	sum := sha256.Sum256([]byte(f.CSV()))
	return hex.EncodeToString(sum[:])
}

// checkBands requires every paper target of the given figures to sit
// inside its acceptance band, and want targets to be evaluated.
func checkBands(ops *tally, figs map[string]*core.Figure, want int) {
	rows := core.Experiments(figs)
	bad := 0
	for _, r := range rows {
		if !r.OK {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: band %s %q: measured %g outside [%g, %g]\n",
				r.FigureID, r.Name, r.Measured, r.Lo, r.Hi)
		}
	}
	ops.add(len(rows), bad, "paper bands")
	ops.check(len(rows) == want, "%d paper bands evaluated, want %d", len(rows), want)
}

// checkStreamFigures requires every figure of the streaming set.
func checkStreamFigures(ops *tally, figs map[string]*core.Figure) {
	missing := 0
	for _, id := range core.StreamFigureIDs() {
		if figs[id] == nil {
			missing++
		}
	}
	ops.check(missing == 0, "%d streaming figures missing", missing)
}

// sameAsFirst checks that a pass reproduced the first pass's output:
// every pass of a run computes the same thing from the same inputs.
func sameAsFirst(ops *tally, first *string, got, what string) {
	if *first == "" {
		*first = got
		return
	}
	ops.check(got == *first, "%s digest %s differs from the first pass's %s", what, got, *first)
}

// checkGolden compares a digest with its value pinned in golden.go; it
// applies only at the default seed.
func checkGolden(ops *tally, seed int64, got, want, what string) {
	if seed != defaultSeed {
		return
	}
	ops.check(got == want, "%s digest %s, pinned %s", what, got, want)
}

// spans wraps the benchmark's calls into the program's public functions
// in flight-recorder spans kept in memory. A nil *spans records
// nothing, so the untraced passes run the same code unwrapped.
type spans struct {
	sink *memSink
	root *obs.Span
}

// memSink is an in-memory obs.TelemetrySink.
type memSink struct {
	mu      sync.Mutex
	entries []json.RawMessage
}

func (s *memSink) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.entries = append(s.entries, b)
	s.mu.Unlock()
	return nil
}

func newSpans(workload string) *spans {
	sink := &memSink{}
	rec := obs.NewFlightRecorder(sink, 1)
	return &spans{sink: sink, root: rec.Begin(obs.SpanStage, workload)}
}

// around runs fn inside a child span named name; fn may hang its own
// spans (the analyzer's shard spans) under the one it is handed.
func (s *spans) around(name string, fn func(*obs.Span) error) error {
	if s == nil {
		return fn(nil)
	}
	sp := s.root.Child(obs.SpanAttempt, name)
	err := fn(sp)
	if err != nil {
		sp.End(obs.SpanFailed, err.Error())
	} else {
		sp.End(obs.SpanOK, "")
	}
	return err
}

// seconds closes the root span and returns each direct child's
// duration, read back from the replayed telemetry.
func (s *spans) seconds() (map[string]float64, error) {
	rootID := s.root.ID()
	s.root.End(obs.SpanOK, "")
	log, err := obs.ReplayTelemetry(s.sink.entries)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	log.Walk(func(sp *obs.ReplaySpan) {
		if sp.Parent == rootID {
			out[sp.Name] += sp.Duration(0).Seconds()
		}
	})
	return out, nil
}

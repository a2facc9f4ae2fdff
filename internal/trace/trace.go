// Package trace persists and converts channel traces: a CSV format for
// the driving dataset, the Mahimahi packet-delivery-opportunity format
// used by MpShell-style emulators, and the timestamp alignment the
// paper's §6 uses so that traces of different networks reflect the same
// location and time.
package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"satcell/internal/channel"
	"satcell/internal/geo"
)

// csvHeader is the column layout of the trace CSV format.
var csvHeader = []string{
	"at_ms", "down_mbps", "up_mbps", "rtt_ms",
	"loss_down", "loss_up", "signal_db", "serving", "outage",
}

// csvEnvHeader is the optional trailing column group of the extended
// trace layout written by WriteRecordsCSV: the drive environment (area
// type, speed) and the burst-loss marker. The readers accept both the
// base and the extended layout, so pre-extension artifacts keep
// loading.
var csvEnvHeader = []string{"area", "speed_kmh", "burst"}

// The header lines of the base and the extended layout.
var (
	baseHeaderLine = "network," + strings.Join(csvHeader, ",") + "\n"
	extHeaderLine  = strings.TrimSuffix(baseHeaderLine, "\n") + "," + strings.Join(csvEnvHeader, ",") + "\n"
)

// WriteCSV writes tr in the satcell CSV trace format.
func WriteCSV(w io.Writer, tr *channel.Trace) error {
	net := appendField(nil, tr.Network.String())
	return writeRows(w, baseHeaderLine, len(tr.Samples), func(b []byte, i int) []byte {
		b = appendSample(b, net, &tr.Samples[i])
		return append(b, '\n')
	})
}

// WriteRecordsCSV writes drive records in the extended trace layout:
// the base columns plus area, speed_kmh and burst. Persisting the
// environment and the burst marker makes the shard self-contained — the
// streaming analyzer rebuilds area/speed figures and replays the fluid
// TCP model from the file alone, without the generating process.
func WriteRecordsCSV(w io.Writer, network channel.NetworkID, recs []channel.Record) error {
	net := appendField(nil, network.String())
	return writeRows(w, extHeaderLine, len(recs), func(b []byte, i int) []byte {
		r := &recs[i]
		b = appendSample(b, net, &r.Sample)
		b = append(b, ',')
		b = appendField(b, r.Env.Area.String())
		b = append(b, ',')
		b = appendFixed(b, r.Env.SpeedKmh, 2)
		b = append(b, ',')
		b = strconv.AppendBool(b, r.Sample.Burst)
		return append(b, '\n')
	})
}

// writeRows writes header and then the n rows row appends, one reused
// buffer at a time, through the same 4 KiB buffered writer an
// encoding/csv Writer would use, so w sees the same write calls.
func writeRows(w io.Writer, header string, n int, row func(b []byte, i int) []byte) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	var b []byte
	for i := 0; i < n; i++ {
		b = row(b[:0], i)
		if _, err := bw.Write(b); err != nil {
			return fmt.Errorf("trace: write record: %w", err)
		}
	}
	return bw.Flush()
}

// appendSample appends the base columns of one row: the pre-rendered
// network field, then the sample.
func appendSample(b, net []byte, s *channel.Sample) []byte {
	b = append(b, net...)
	b = append(b, ',')
	b = strconv.AppendInt(b, s.At.Milliseconds(), 10)
	b = append(b, ',')
	b = appendFixed(b, s.DownMbps, 3)
	b = append(b, ',')
	b = appendFixed(b, s.UpMbps, 3)
	b = append(b, ',')
	b = appendFixed(b, float64(s.RTT.Microseconds())/1000, 3)
	b = append(b, ',')
	b = appendFixed(b, s.LossDown, 6)
	b = append(b, ',')
	b = appendFixed(b, s.LossUp, 6)
	b = append(b, ',')
	b = appendFixed(b, s.SignalDB, 2)
	b = append(b, ',')
	b = appendField(b, s.Serving)
	b = append(b, ',')
	return strconv.AppendBool(b, s.Outage)
}

// appendField appends a string field, quoted exactly when and how an
// encoding/csv Writer quotes it: when it holds a comma, a quote, CR or
// LF, starts with a space, or is `\.`; quotes inside are doubled.
func appendField(b []byte, f string) []byte {
	if !fieldNeedsQuotes(f) {
		return append(b, f...)
	}
	b = append(b, '"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, f[i])
	}
	return append(b, '"')
}

func fieldNeedsQuotes(f string) bool {
	if f == "" {
		return false
	}
	if f == `\.` || strings.ContainsAny(f, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(f)
	return unicode.IsSpace(r)
}

// ReadCSV parses a trace written by WriteCSV. It is strict: the first
// malformed record aborts the read with a "trace:"-prefixed error naming
// the offending line. Empty lines, whitespace-only lines (including bare
// CR from CRLF artifacts) and a UTF-8 BOM are tolerated in both modes.
func ReadCSV(r io.Reader) (*channel.Trace, error) {
	return readCSV(r, false, nil)
}

// ReadCSVLenient parses like ReadCSV but skips malformed records instead
// of failing: each skipped row is reported to onSkip (if non-nil) with
// its line number and a "trace:"-prefixed error. Structural problems —
// empty input, a wrong header — still fail, since nothing after them can
// be trusted.
func ReadCSVLenient(r io.Reader, onSkip func(line int, err error)) (*channel.Trace, error) {
	return readCSV(r, true, onSkip)
}

// maxConsecutiveBadRows bounds lenient-mode error tolerance so a file
// that is not a trace at all fails instead of silently skipping forever.
const maxConsecutiveBadRows = 10000

func readCSV(r io.Reader, lenient bool, onSkip func(int, error)) (*channel.Trace, error) {
	tr := &channel.Trace{}
	first := true
	err := scanCSV(r, lenient, onSkip, func(n channel.NetworkID, rec channel.Record) error {
		if !first && n != tr.Network {
			return fmt.Errorf("network changed mid-trace: %v then %v", tr.Network, n)
		}
		if first {
			tr.Network = n
			first = false
		}
		tr.Samples = append(tr.Samples, rec.Sample)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// ScanRecordsCSV streams a trace CSV (base or extended layout) row by
// row without materializing the whole trace: fn receives each record's
// network plus the reconstructed channel.Record (the environment fields
// are zero for base-layout files). An error returned by fn counts as a
// malformed row — fatal in strict mode, skip-and-report in lenient
// mode. This is the incremental reader under store.ScanTrace, the
// streaming analyzer's shard scan and the store's fsck.
func ScanRecordsCSV(r io.Reader, lenient bool, onSkip func(line int, err error), fn func(channel.NetworkID, channel.Record) error) error {
	return scanCSV(r, lenient, onSkip, fn)
}

func scanCSV(r io.Reader, lenient bool, onSkip func(int, error), fn func(channel.NetworkID, channel.Record) error) error {
	sp := newSplitter(r)
	err := sp.next()
	if err == io.EOF {
		return errors.New("trace: empty trace file (no header)")
	}
	if err != nil {
		return fmt.Errorf("trace: read header: %w", err)
	}
	if string(trimSpace(sp.field(0))) != "network" {
		return fmt.Errorf("trace: unexpected header %q", sp.field(0))
	}
	d := &rowDecoder{want: len(csvHeader) + 1}
	switch sp.nf {
	case d.want: // base layout
	case d.want + len(csvEnvHeader): // extended layout with env columns
		d.want += len(csvEnvHeader)
	default:
		return fmt.Errorf("trace: unexpected header: %d columns (want %d or %d)",
			sp.nf, d.want, d.want+len(csvEnvHeader))
	}
	bad := 0
	skip := func(line int, rowErr error) error {
		if !lenient {
			return rowErr
		}
		if bad++; bad > maxConsecutiveBadRows {
			return fmt.Errorf("trace: giving up after %d consecutive malformed rows: %w",
				maxConsecutiveBadRows, rowErr)
		}
		if onSkip != nil {
			onSkip(line, rowErr)
		}
		return nil
	}
	for {
		err := sp.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A read error has no line to name.
			if serr := skip(0, fmt.Errorf("trace: line 0: %w", err)); serr != nil {
				return serr
			}
			continue
		}
		if sp.nf == 1 && len(trimSpace(sp.field(0))) == 0 {
			continue // trailing blank / whitespace-only lines are not data
		}
		row, n, err := d.decode(sp)
		if err == nil {
			err = fn(n, row)
		}
		if err != nil {
			if serr := skip(sp.line, fmt.Errorf("trace: line %d: %w", sp.line, err)); serr != nil {
				return serr
			}
			continue
		}
		bad = 0
	}
	return nil
}

// trimSpace is bytes.TrimSpace with the common case — a field that
// starts and ends in printable ASCII — answered without a call.
func trimSpace(b []byte) []byte {
	if n := len(b); n > 0 && b[0]-'!' < 0x7f-'!' && b[n-1]-'!' < 0x7f-'!' {
		return b
	}
	return bytes.TrimSpace(b)
}

// rowDecoder validates and parses split data records (network + sample,
// plus the environment columns in the extended layout). The network
// column resolves against the default catalog, so traces of custom
// registered networks load like the built-in five. The network, serving
// and area columns repeat from row to row, so each distinct value is
// resolved, and its string allocated, once per scan.
type rowDecoder struct {
	want    int // fields per record
	nets    memo[channel.NetworkID]
	serving memo[string]
	areas   memo[geo.AreaType]
}

// memo resolves a column's values once per distinct value, and answers
// a repeat of the previous row's value without a map lookup.
type memo[V any] struct {
	seen map[string]memoEntry[V]
	last memoEntry[V]
	ok   bool // last is set
}

type memoEntry[V any] struct {
	key string
	v   V
}

// get returns resolve(string(key)), calling resolve only on the first
// sight of a key; a failed resolution is not remembered.
func (c *memo[V]) get(key []byte, resolve func(string) (V, error)) (V, error) {
	if c.ok && string(key) == c.last.key {
		return c.last.v, nil
	}
	e, hit := c.seen[string(key)]
	if !hit {
		k := string(key)
		v, err := resolve(k)
		if err != nil {
			return v, err
		}
		if c.seen == nil {
			c.seen = make(map[string]memoEntry[V])
		}
		e = memoEntry[V]{key: k, v: v}
		c.seen[k] = e
	}
	c.last, c.ok = e, true
	return e.v, nil
}

func servingID(s string) (string, error) { return s, nil }

var errUnknownArea = errors.New("unknown area")

func parseArea(s string) (geo.AreaType, error) {
	if a, ok := geo.ParseArea(s); ok {
		return a, nil
	}
	return 0, errUnknownArea
}

// decode parses the splitter's current record. Checks run in column
// order, so a row with several faults reports its first.
func (d *rowDecoder) decode(sp *splitter) (channel.Record, channel.NetworkID, error) {
	if sp.nf != d.want {
		return channel.Record{}, channel.NetworkInvalid, fmt.Errorf("%d fields, want %d", sp.nf, d.want)
	}
	n, err := d.nets.get(trimSpace(sp.field(0)), channel.ParseNetwork)
	if err != nil {
		return channel.Record{}, channel.NetworkInvalid, err
	}
	var out channel.Record
	if err := d.sample(&out.Sample, sp.fields[1:]); err != nil {
		return channel.Record{}, n, err
	}
	out.Env.At = out.Sample.At
	if d.want > len(csvHeader)+1 {
		ext := sp.fields[len(csvHeader)+1:]
		area, err := d.areas.get(trimSpace(ext[0]), parseArea)
		if err != nil {
			return channel.Record{}, n, fmt.Errorf("bad area %q", ext[0])
		}
		out.Env.Area = area
		speed, err := parseFloat(trimSpace(ext[1]))
		if err != nil {
			return channel.Record{}, n, fmt.Errorf("bad speed_kmh %q: %w", ext[1], err)
		}
		out.Env.SpeedKmh = speed
		burst, err := parseBool(trimSpace(ext[2]))
		if err != nil {
			return channel.Record{}, n, fmt.Errorf("bad burst %q: %w", ext[2], err)
		}
		out.Sample.Burst = burst
	}
	return out, n, nil
}

// sample parses the base columns after the network into s.
func (d *rowDecoder) sample(s *channel.Sample, rec [][]byte) error {
	atMs, err := parseInt(trimSpace(rec[0]))
	if err != nil {
		return fmt.Errorf("bad at_ms %q: %w", rec[0], err)
	}
	s.At = time.Duration(atMs) * time.Millisecond
	fields := [...]*float64{&s.DownMbps, &s.UpMbps, nil, &s.LossDown, &s.LossUp, &s.SignalDB}
	for i, dst := range fields {
		if dst == nil {
			continue
		}
		v, err := parseFloat(trimSpace(rec[1+i]))
		if err != nil {
			return fmt.Errorf("bad field %d %q: %w", i, rec[1+i], err)
		}
		*dst = v
	}
	rttMs, err := parseFloat(trimSpace(rec[3]))
	if err != nil {
		return fmt.Errorf("bad rtt %q: %w", rec[3], err)
	}
	s.RTT = time.Duration(rttMs * float64(time.Millisecond))
	s.Serving, _ = d.serving.get(rec[7], servingID)
	s.Outage, err = parseBool(trimSpace(rec[8]))
	if err != nil {
		return fmt.Errorf("bad outage %q: %w", rec[8], err)
	}
	return nil
}

// mahimahiMTU is the bytes-per-opportunity constant of the Mahimahi
// trace format: each line grants one 1500-byte delivery opportunity.
const mahimahiMTU = 1500

// WriteMahimahi converts the downlink capacity of tr into a Mahimahi
// packet-delivery trace: one line per 1500-byte delivery opportunity,
// each holding the opportunity's timestamp in integer milliseconds.
// This is the conversion the paper performs to replay UDP throughput
// traces on MpShell.
func WriteMahimahi(w io.Writer, tr *channel.Trace, uplink bool) error {
	bw := bufio.NewWriter(w)
	var carry float64 // fractional opportunities carried between samples
	for i, s := range tr.Samples {
		// Sample i covers [s.At, next.At).
		end := s.At + time.Second
		if i+1 < len(tr.Samples) {
			end = tr.Samples[i+1].At
		}
		durMs := float64(end-s.At) / float64(time.Millisecond)
		if durMs <= 0 {
			continue
		}
		rate := s.DownMbps
		if uplink {
			rate = s.UpMbps
		}
		// Opportunities in this window.
		ops := rate * 1e6 / 8 / mahimahiMTU * durMs / 1000
		total := ops + carry
		n := int(total)
		carry = total - float64(n)
		startMs := float64(s.At) / float64(time.Millisecond)
		for k := 0; k < n; k++ {
			at := startMs + durMs*float64(k)/float64(n)
			if _, err := fmt.Fprintf(bw, "%d\n", int64(at)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMahimahi parses a Mahimahi delivery-opportunity trace back into a
// per-second capacity trace (Mbps), attributing each opportunity to its
// second. It is strict: the first malformed line aborts with a
// "trace:"-prefixed error naming the line. Blank and whitespace-only
// lines (including CRLF artifacts) are tolerated; a file with no
// opportunities at all is an error.
func ReadMahimahi(r io.Reader, network channel.NetworkID) (*channel.Trace, error) {
	return readMahimahi(r, network, false, nil)
}

// ReadMahimahiLenient parses like ReadMahimahi but skips malformed lines
// instead of failing, reporting each skip to onSkip (if non-nil).
func ReadMahimahiLenient(r io.Reader, network channel.NetworkID, onSkip func(line int, err error)) (*channel.Trace, error) {
	return readMahimahi(r, network, true, onSkip)
}

func readMahimahi(r io.Reader, network channel.NetworkID, lenient bool, onSkip func(int, error)) (*channel.Trace, error) {
	sc := bufio.NewScanner(stripBOM(r))
	counts := make(map[int64]int64)
	var maxSec, total int64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		ms, err := strconv.ParseInt(line, 10, 64)
		if err != nil || ms < 0 {
			rowErr := fmt.Errorf("trace: mahimahi line %d: bad opportunity %q", lineNo, line)
			if !lenient {
				return nil, rowErr
			}
			if onSkip != nil {
				onSkip(lineNo, rowErr)
			}
			continue
		}
		sec := ms / 1000
		counts[sec]++
		total++
		if sec > maxSec {
			maxSec = sec
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read mahimahi: %w", err)
	}
	if total == 0 {
		return nil, errors.New("trace: empty mahimahi trace (no delivery opportunities)")
	}
	tr := &channel.Trace{Network: network}
	for sec := int64(0); sec <= maxSec; sec++ {
		mbps := float64(counts[sec]) * mahimahiMTU * 8 / 1e6
		tr.Samples = append(tr.Samples, channel.Sample{
			At:       time.Duration(sec) * time.Second,
			DownMbps: mbps,
		})
	}
	return tr, nil
}

// stripBOM removes a leading UTF-8 byte-order mark, which spreadsheet
// tools like to prepend when re-saving CSV artifacts.
func stripBOM(r io.Reader) *bufio.Reader {
	br := bufio.NewReader(r)
	if b, err := br.Peek(3); err == nil && b[0] == 0xEF && b[1] == 0xBB && b[2] == 0xBF {
		br.Discard(3)
	}
	return br
}

// Align trims a set of traces to their common time span (all traces are
// assumed to start at the same instant, as the paper aligns them by
// wall-clock timestamp) and returns copies covering [0, min duration).
func Align(traces ...*channel.Trace) []*channel.Trace {
	if len(traces) == 0 {
		return nil
	}
	minDur := traces[0].Duration()
	for _, tr := range traces[1:] {
		if d := tr.Duration(); d < minDur {
			minDur = d
		}
	}
	out := make([]*channel.Trace, len(traces))
	for i, tr := range traces {
		out[i] = tr.Slice(0, minDur+1)
	}
	return out
}

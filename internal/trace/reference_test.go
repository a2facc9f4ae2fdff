package trace

// The encoding/csv codec the trace CSV format was first written with,
// kept as the reference the byte-level splitter, the number parsers
// and the fixed-point writer are checked against.

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"satcell/internal/channel"
	"satcell/internal/geo"
)

// refWriteCSV is the encoding/csv writer WriteCSV replaced.
func refWriteCSV(w io.Writer, tr *channel.Trace) error {
	cw := csv.NewWriter(w)
	header := append([]string{"network"}, csvHeader...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, s := range tr.Samples {
		rec := []string{
			tr.Network.String(),
			strconv.FormatInt(s.At.Milliseconds(), 10),
			strconv.FormatFloat(s.DownMbps, 'f', 3, 64),
			strconv.FormatFloat(s.UpMbps, 'f', 3, 64),
			strconv.FormatFloat(float64(s.RTT.Microseconds())/1000, 'f', 3, 64),
			strconv.FormatFloat(s.LossDown, 'f', 6, 64),
			strconv.FormatFloat(s.LossUp, 'f', 6, 64),
			strconv.FormatFloat(s.SignalDB, 'f', 2, 64),
			s.Serving,
			strconv.FormatBool(s.Outage),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// refWriteRecordsCSV is the encoding/csv writer WriteRecordsCSV
// replaced.
func refWriteRecordsCSV(w io.Writer, network channel.NetworkID, recs []channel.Record) error {
	cw := csv.NewWriter(w)
	header := append([]string{"network"}, csvHeader...)
	header = append(header, csvEnvHeader...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, r := range recs {
		s := r.Sample
		rec := []string{
			network.String(),
			strconv.FormatInt(s.At.Milliseconds(), 10),
			strconv.FormatFloat(s.DownMbps, 'f', 3, 64),
			strconv.FormatFloat(s.UpMbps, 'f', 3, 64),
			strconv.FormatFloat(float64(s.RTT.Microseconds())/1000, 'f', 3, 64),
			strconv.FormatFloat(s.LossDown, 'f', 6, 64),
			strconv.FormatFloat(s.LossUp, 'f', 6, 64),
			strconv.FormatFloat(s.SignalDB, 'f', 2, 64),
			s.Serving,
			strconv.FormatBool(s.Outage),
			r.Env.Area.String(),
			strconv.FormatFloat(r.Env.SpeedKmh, 'f', 2, 64),
			strconv.FormatBool(s.Burst),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// refScanCSV is the encoding/csv scanner scanCSV replaced.
func refScanCSV(r io.Reader, lenient bool, onSkip func(int, error), fn func(channel.NetworkID, channel.Record) error) error {
	cr := csv.NewReader(stripBOM(r))
	cr.FieldsPerRecord = -1 // field counts are validated per record below
	cr.LazyQuotes = true
	header, err := cr.Read()
	if err == io.EOF {
		return errors.New("trace: empty trace file (no header)")
	}
	if err != nil {
		return fmt.Errorf("trace: read header: %w", err)
	}
	if strings.TrimSpace(header[0]) != "network" {
		return fmt.Errorf("trace: unexpected header %q", header[0])
	}
	wantFields := len(csvHeader) + 1
	switch len(header) {
	case wantFields: // base layout
	case wantFields + len(csvEnvHeader): // extended layout with env columns
		wantFields += len(csvEnvHeader)
	default:
		return fmt.Errorf("trace: unexpected header: %d columns (want %d or %d)",
			len(header), wantFields, wantFields+len(csvEnvHeader))
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
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			line := 0
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				line = pe.Line
			}
			if serr := skip(line, fmt.Errorf("trace: line %d: %w", line, err)); serr != nil {
				return serr
			}
			continue
		}
		if refBlankRecord(rec) {
			continue // trailing blank / whitespace-only lines are not data
		}
		line, _ := cr.FieldPos(0)
		row, n, err := refParseRecord(rec, wantFields)
		if err == nil {
			err = fn(n, row)
		}
		if err != nil {
			if serr := skip(line, fmt.Errorf("trace: line %d: %w", line, err)); serr != nil {
				return serr
			}
			continue
		}
		bad = 0
	}
	return nil
}

// refBlankRecord reports whether rec is an empty or whitespace-only line
// (encoding/csv only skips fully empty lines on its own).
func refBlankRecord(rec []string) bool {
	return len(rec) == 1 && strings.TrimSpace(rec[0]) == ""
}

// refParseRecord validates and parses one data record (network + sample,
// plus the environment columns in the extended layout). The network
// column resolves against the default catalog, so traces of custom
// registered networks load like the built-in five.
func refParseRecord(rec []string, wantFields int) (channel.Record, channel.NetworkID, error) {
	if len(rec) != wantFields {
		return channel.Record{}, channel.NetworkInvalid, fmt.Errorf("%d fields, want %d", len(rec), wantFields)
	}
	n, err := channel.ParseNetwork(strings.TrimSpace(rec[0]))
	if err != nil {
		return channel.Record{}, channel.NetworkInvalid, err
	}
	s, err := refParseSample(rec[1:])
	if err != nil {
		return channel.Record{}, n, err
	}
	out := channel.Record{Sample: s}
	out.Env.At = s.At
	if wantFields > len(csvHeader)+1 {
		ext := rec[len(csvHeader)+1:]
		area, ok := geo.ParseArea(strings.TrimSpace(ext[0]))
		if !ok {
			return channel.Record{}, n, fmt.Errorf("bad area %q", ext[0])
		}
		out.Env.Area = area
		speed, err := strconv.ParseFloat(strings.TrimSpace(ext[1]), 64)
		if err != nil {
			return channel.Record{}, n, fmt.Errorf("bad speed_kmh %q: %w", ext[1], err)
		}
		out.Env.SpeedKmh = speed
		burst, err := strconv.ParseBool(strings.TrimSpace(ext[2]))
		if err != nil {
			return channel.Record{}, n, fmt.Errorf("bad burst %q: %w", ext[2], err)
		}
		out.Sample.Burst = burst
	}
	return out, n, nil
}

func refParseSample(rec []string) (channel.Sample, error) {
	var s channel.Sample
	atMs, err := strconv.ParseInt(strings.TrimSpace(rec[0]), 10, 64)
	if err != nil {
		return s, fmt.Errorf("bad at_ms %q: %w", rec[0], err)
	}
	s.At = time.Duration(atMs) * time.Millisecond
	fields := []*float64{&s.DownMbps, &s.UpMbps, nil, &s.LossDown, &s.LossUp, &s.SignalDB}
	for i, dst := range fields {
		if dst == nil {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[1+i]), 64)
		if err != nil {
			return s, fmt.Errorf("bad field %d %q: %w", i, rec[1+i], err)
		}
		*dst = v
	}
	rttMs, err := strconv.ParseFloat(strings.TrimSpace(rec[3]), 64)
	if err != nil {
		return s, fmt.Errorf("bad rtt %q: %w", rec[3], err)
	}
	s.RTT = time.Duration(rttMs * float64(time.Millisecond))
	s.Serving = rec[7]
	s.Outage, err = strconv.ParseBool(strings.TrimSpace(rec[8]))
	if err != nil {
		return s, fmt.Errorf("bad outage %q: %w", rec[8], err)
	}
	return s, nil
}

package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"satcell/internal/channel"
	"satcell/internal/dataset"
	"satcell/internal/geo"
)

// The codec tests hold the byte-level reader and the fixed-point writer
// to the encoding/csv + strconv codec in reference_test.go: the same
// bytes out, the same values, skips and errors in.

// codecDataset is a small generated campaign shared by the codec tests.
var codecDataset = sync.OnceValue(func() *dataset.Dataset {
	return dataset.Generate(dataset.Config{Seed: 7, Scale: 0.02})
})

// codecDrive returns one generated drive's records for one network.
func codecDrive(t testing.TB) (channel.NetworkID, []channel.Record) {
	t.Helper()
	ds := codecDataset()
	n := channel.Networks[0]
	recs := ds.Drives[0].Observed[n]
	if len(recs) < 1000 {
		t.Fatalf("generated drive has %d records, want >= 1000", len(recs))
	}
	return n, recs
}

// tiledShard repeats the drive's first 1,000 records until it holds
// rows records, shifting timestamps so they keep increasing. Every
// tile has the same distinct serving and area values, so the shard's
// size is the only thing that grows.
func tiledShard(t testing.TB, rows int) (channel.NetworkID, []channel.Record) {
	t.Helper()
	n, recs := codecDrive(t)
	base := recs[:1000]
	span := base[len(base)-1].Sample.At + time.Second
	out := make([]channel.Record, rows)
	for i := range out {
		r := base[i%len(base)]
		shift := time.Duration(i/len(base)) * span
		r.Sample.At += shift
		r.Env.At += shift
		out[i] = r
	}
	return n, out
}

func encodeShard(t testing.TB, n channel.NetworkID, recs []channel.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, n, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recKey is a comparable image of a record with every float as its
// bit pattern, so -0 and NaN compare exactly.
type recKey struct {
	net                                  channel.NetworkID
	at, rtt, envAt                       time.Duration
	down, up, lossDown, lossUp, sig, kmh uint64
	lat, lon                             uint64
	serving                              string
	outage, burst                        bool
	area                                 geo.AreaType
}

func keyOf(n channel.NetworkID, r channel.Record) recKey {
	s := r.Sample
	return recKey{
		net: n, at: s.At, rtt: s.RTT, envAt: r.Env.At,
		down: math.Float64bits(s.DownMbps), up: math.Float64bits(s.UpMbps),
		lossDown: math.Float64bits(s.LossDown), lossUp: math.Float64bits(s.LossUp),
		sig: math.Float64bits(s.SignalDB), kmh: math.Float64bits(r.Env.SpeedKmh),
		lat: math.Float64bits(r.Env.Pos.Lat), lon: math.Float64bits(r.Env.Pos.Lon),
		serving: s.Serving, outage: s.Outage, burst: s.Burst, area: r.Env.Area,
	}
}

// scanOutcome is everything a scan reports: accepted records, skipped
// lines with their errors, and the final error.
type scanOutcome struct {
	recs  []recKey
	skips []string
	err   string
}

type scanFunc func(io.Reader, bool, func(int, error), func(channel.NetworkID, channel.Record) error) error

func runScan(scan scanFunc, data []byte, lenient bool) scanOutcome {
	var out scanOutcome
	err := scan(bytes.NewReader(data), lenient, func(line int, err error) {
		out.skips = append(out.skips, fmt.Sprintf("%d: %v", line, err))
	}, func(n channel.NetworkID, r channel.Record) error {
		out.recs = append(out.recs, keyOf(n, r))
		return nil
	})
	if err != nil {
		out.err = err.Error()
	}
	return out
}

func compareScans(t *testing.T, data []byte) {
	t.Helper()
	for _, lenient := range []bool{false, true} {
		got := runScan(scanCSV, data, lenient)
		want := runScan(refScanCSV, data, lenient)
		if got.err != want.err {
			t.Fatalf("lenient=%v: error %q, reference %q\ninput %q", lenient, got.err, want.err, data)
		}
		if fmt.Sprint(got.skips) != fmt.Sprint(want.skips) {
			t.Fatalf("lenient=%v: skips %q, reference %q\ninput %q", lenient, got.skips, want.skips, data)
		}
		if len(got.recs) != len(want.recs) {
			t.Fatalf("lenient=%v: %d records, reference %d\ninput %q", lenient, len(got.recs), len(want.recs), data)
		}
		for i := range got.recs {
			if got.recs[i] != want.recs[i] {
				t.Fatalf("lenient=%v: record %d = %+v, reference %+v\ninput %q",
					lenient, i, got.recs[i], want.recs[i], data)
			}
		}
	}
}

// FuzzScanRecordsCSV checks the byte-level scanner against the
// encoding/csv scanner it replaced, in both modes: the same error, the
// same skipped lines with the same errors, and bit-identical records.
// The seed corpus lives in testdata/fuzz/FuzzScanRecordsCSV.
func FuzzScanRecordsCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		compareScans(t, data)
	})
}

// TestCodecScanMatchesReferenceOnDrive runs the differential check on a
// whole generated shard in both layouts.
func TestCodecScanMatchesReferenceOnDrive(t *testing.T) {
	n, recs := codecDrive(t)
	compareScans(t, encodeShard(t, n, recs))
	var buf bytes.Buffer
	tr := &channel.Trace{Network: n}
	for _, r := range recs {
		tr.Samples = append(tr.Samples, r.Sample)
	}
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	compareScans(t, buf.Bytes())
}

// TestCodecScanLongLines crosses the reader's buffer size with
// unquoted and quoted fields, so the reassembled-line path is checked.
func TestCodecScanLongLines(t *testing.T) {
	long := bytes.Repeat([]byte("x"), 9000)
	row := func(serving string) string {
		return "RM,1000,1.5,2.5,30.000,0.1,0.2,-80.00," + serving + ",false\n"
	}
	in := baseHeaderLine + row(string(long)) + row(`"`+string(long)+"\n"+string(long)+`"`) + row("a")
	compareScans(t, []byte(in))
}

// TestCodecWriteRecordsCSVMatchesReference requires the fixed-point
// writer to produce the encoding/csv writer's bytes, for a generated
// drive and for string fields that need quoting.
func TestCodecWriteRecordsCSVMatchesReference(t *testing.T) {
	n, recs := codecDrive(t)
	recs = append([]channel.Record(nil), recs...)
	for i, serving := range []string{`a,b`, `say "hi"`, `a""b`, `"`, "cr\rlf\n", "x\r\ny", "\n",
		" lead", "\tx", "x ", "\u00a0nbsp", `\.`, `\.x`, "", "\xff"} {
		r := recs[i]
		r.Sample.Serving = serving
		recs = append(recs, r)
	}
	var got, want bytes.Buffer
	if err := WriteRecordsCSV(&got, n, recs); err != nil {
		t.Fatal(err)
	}
	if err := refWriteRecordsCSV(&want, n, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteRecordsCSV differs from the encoding/csv writer at byte %d",
			firstDiff(got.Bytes(), want.Bytes()))
	}

	tr := &channel.Trace{Network: n}
	for _, r := range recs {
		tr.Samples = append(tr.Samples, r.Sample)
	}
	got.Reset()
	want.Reset()
	if err := WriteCSV(&got, tr); err != nil {
		t.Fatal(err)
	}
	if err := refWriteCSV(&want, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV differs from the encoding/csv writer at byte %d",
			firstDiff(got.Bytes(), want.Bytes()))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// codecFloats returns the values the fixed-point tests sweep: random
// bit patterns, random magnitudes across the written range, exact
// binary ties, k/2000 near-ties, signed zeros, subnormals, the 2^52
// and 2^53 boundaries and the non-finite values.
func codecFloats() []float64 {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 52),
		math.MaxFloat64, -math.MaxFloat64,
		1 << 52, 1<<52 - 0.5, 1<<52 - 1, -(1<<52 - 0.5), 1 << 53, 1<<53 + 2, 1e20, -1e300,
		0.5, 1.5, 2.5, -2.5, 0.125, 0.375, 0.0625, 0.0078125, 0.0005, 0.00049999999999999999,
		9.9995, 99.995, 0.9999995, 1e-7, 5e-7, 4.9999999e-7, 123.456, 65.43, -85.5,
	}
	for i := 0; i < 1000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 30000; i++ {
		mag := math.Pow(10, float64(rng.Intn(26)-10))
		vals = append(vals, (rng.Float64()*2-1)*mag)
	}
	for k := -6000; k <= 6000; k++ {
		vals = append(vals, float64(k)/2000, float64(k)/1024, float64(k)/128+float64(k)*1e3)
	}
	for k := 1; k < 512; k += 2 { // ties at precision 19 behind a 65..72-bit shift
		vals = append(vals, float64(k)/(1<<20), -float64(k)/(1<<20))
	}
	for i := 0; i < 1000; i++ { // subnormals
		vals = append(vals, math.Float64frombits(rng.Uint64()&(1<<52-1)|uint64(rng.Intn(2))<<63))
	}
	return vals
}

// TestCodecAppendFixedMatchesStrconv requires appendFixed to be
// byte-identical to strconv's 'f' formatting.
func TestCodecAppendFixedMatchesStrconv(t *testing.T) {
	vals := codecFloats()
	var buf []byte
	for _, prec := range []int{0, 2, 3, 6, 19, 25} {
		for _, v := range vals {
			buf = appendFixed(buf[:0], v, prec)
			if want := strconv.FormatFloat(v, 'f', prec, 64); string(buf) != want {
				t.Fatalf("appendFixed(%v [%#x], %d) = %q, strconv %q",
					v, math.Float64bits(v), prec, buf, want)
			}
		}
	}
}

// TestCodecParseFloatMatchesStrconv requires the decimal fast path to
// return strconv's exact value, and its fallback strconv's error.
func TestCodecParseFloatMatchesStrconv(t *testing.T) {
	inputs := []string{"", "-", ".", "-.", "1.", ".5", "+1.5", "1e3", "1E-3", "inf", "-Inf", "NaN",
		"-0", "0", "-0.000", "0001.500", "123456789012345", "1234567890123456",
		"0.12345678901234", "0.123456789012345", "9007199254740993", "1_0", "0x1p-2",
		"1.5.2", "--1", "1-", " 1", "1e400", "4.9e-324", "١"}
	var buf []byte
	for _, v := range codecFloats() {
		for _, prec := range []int{2, 3, 6} {
			buf = appendFixed(buf[:0], v, prec)
			inputs = append(inputs, string(buf))
		}
	}
	for _, in := range inputs {
		got, gerr := parseFloat([]byte(in))
		want, werr := strconv.ParseFloat(in, 64)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v, %v; strconv %v, %v", in, got, gerr, want, werr)
		}
	}
}

// TestCodecParseIntAndBoolMatchStrconv covers the integer and boolean
// fast paths the same way.
func TestCodecParseIntAndBoolMatchStrconv(t *testing.T) {
	for _, in := range []string{"", "-", "+", "0", "-0", "+5", "007", "123456789012345678",
		"-123456789012345678", "1234567890123456789", "9223372036854775807",
		"-9223372036854775808", "9223372036854775808", "1a", " 1", "1_000", "0x10"} {
		got, gerr := parseInt([]byte(in))
		want, werr := strconv.ParseInt(in, 10, 64)
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("parseInt(%q) = %v, %v; strconv %v, %v", in, got, gerr, want, werr)
		}
	}
	for _, in := range []string{"", "true", "false", "1", "0", "t", "F", "TRUE", "False", "yes", "true "} {
		got, gerr := parseBool([]byte(in))
		want, werr := strconv.ParseBool(in)
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("parseBool(%q) = %v, %v; strconv %v, %v", in, got, gerr, want, werr)
		}
	}
}

// TestScanRecordsCSVAllocs pins the scanner's allocations to the
// shard, not its rows: a 1,000-row and a 10,000-row shard with the
// same distinct values allocate the same number of times.
func TestScanRecordsCSVAllocs(t *testing.T) {
	scanAllocs := func(rows int) float64 {
		n, recs := tiledShard(t, rows)
		data := encodeShard(t, n, recs)
		return testing.AllocsPerRun(5, func() {
			err := ScanRecordsCSV(bytes.NewReader(data), false, nil,
				func(channel.NetworkID, channel.Record) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := scanAllocs(1000), scanAllocs(10000); small != large {
		t.Fatalf("scan allocates per row: %v allocs for 1,000 rows, %v for 10,000", small, large)
	}
}

// TestWriteRecordsCSVAllocs pins the writer at zero allocations per
// row.
func TestWriteRecordsCSVAllocs(t *testing.T) {
	writeAllocs := func(rows int) float64 {
		n, recs := tiledShard(t, rows)
		return testing.AllocsPerRun(5, func() {
			if err := WriteRecordsCSV(io.Discard, n, recs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := writeAllocs(1000), writeAllocs(10000); small != large {
		t.Fatalf("writer allocates per row: %v allocs for 1,000 rows, %v for 10,000", small, large)
	}
}

// BenchmarkScanRecordsCSV measures the strict scan of a 10,000-row
// extended-layout shard (bytes/s is input CSV).
func BenchmarkScanRecordsCSV(b *testing.B) {
	n, recs := tiledShard(b, 10000)
	data := encodeShard(b, n, recs)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		err := ScanRecordsCSV(bytes.NewReader(data), false, nil,
			func(channel.NetworkID, channel.Record) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkWriteRecordsCSV measures writing the same shard (bytes/s is
// output CSV).
func BenchmarkWriteRecordsCSV(b *testing.B) {
	n, recs := tiledShard(b, 10000)
	b.SetBytes(int64(len(encodeShard(b, n, recs))))
	b.ReportAllocs()
	for b.Loop() {
		if err := WriteRecordsCSV(io.Discard, n, recs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

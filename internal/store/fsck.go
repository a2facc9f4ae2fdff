package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"satcell/internal/channel"
	"satcell/internal/trace"
)

// Problem is one integrity finding of Fsck.
type Problem struct {
	// File names the artifact (or control file) at fault; empty for
	// directory-level findings.
	File string
	Desc string
}

// FsckReport is the outcome of one dataset-directory audit.
type FsckReport struct {
	Dir          string
	FilesChecked int
	RowsChecked  int
	Problems     []Problem
}

// OK reports whether the directory passed every check.
func (r *FsckReport) OK() bool { return len(r.Problems) == 0 }

// String renders the report, one finding per line.
func (r *FsckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsck %s: %d files, %d rows checked\n", r.Dir, r.FilesChecked, r.RowsChecked)
	if r.OK() {
		b.WriteString("  ok: manifest, checksums, schema and timestamps all verify\n")
		return b.String()
	}
	for _, p := range r.Problems {
		name := p.File
		if name == "" {
			name = "."
		}
		fmt.Fprintf(&b, "  BAD %-32s %s\n", name, p.Desc)
	}
	return b.String()
}

func (r *FsckReport) problem(file, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{File: file, Desc: fmt.Sprintf(format, args...)})
}

// Fsck audits a dataset directory: manifest presence and schema,
// per-file sha256 and sizes, leftover torn-rename temp files, unknown
// files, an unretired checkpoint, tests.csv/trace schema validity, row
// counts and trace timestamp monotonicity. It returns an error only
// when the directory itself cannot be read; integrity findings land in
// the report.
func Fsck(dir string) (*FsckReport, error) {
	return FsckFS(nil, dir)
}

// FsckFS is Fsck through an explicit FS (nil means the real
// filesystem), so the campaign supervisor's verify stage audits the
// same — possibly fault-injected — filesystem the export wrote.
func FsckFS(fsys FS, dir string) (*FsckReport, error) {
	fsys = orOS(fsys)
	rep := &FsckReport{Dir: dir}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	onDisk := make(map[string]bool, len(entries))
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		name := e.Name()
		onDisk[name] = true
		if IsTempFile(name) {
			rep.problem(name, "torn rename: leftover atomic-write temp file")
		}
	}
	if onDisk[CheckpointName] {
		rep.problem(CheckpointName,
			"incomplete campaign: checkpoint journal present (resume with drivegen -resume)")
	}
	if !onDisk[ManifestName] {
		rep.problem(ManifestName, "missing manifest: directory was never completed")
		return rep, nil
	}

	m, err := ReadManifestFS(fsys, dir)
	if err != nil {
		rep.problem(ManifestName, "%v", err)
		return rep, nil
	}
	names := make([]string, 0, len(m.Files))
	for name := range m.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.FilesChecked++
		auditFile(fsys, dir, name, m.Files[name], rep)
	}
	for name := range onDisk {
		if name == ManifestName || name == CheckpointName || name == LockName || IsTempFile(name) {
			continue
		}
		if _, ok := m.Files[name]; !ok {
			rep.problem(name, "unknown file: not listed in the manifest")
		}
	}
	return rep, nil
}

// auditFile checks one manifest file in a single read: its bytes
// stream through sha256 and a byte count while a trace shard or
// tests.csv is strict-scanned from the same read, and whatever the scan
// leaves unread is hashed after it. Nothing is materialised. Findings
// keep the precedence of verifying first and parsing second: a missing
// file, then a read error, a size mismatch or a checksum mismatch (the
// first that applies), and content findings only for a file whose
// checksum verifies — the checksum already rules out disk corruption,
// so the content checks catch writer bugs and hand-edited files whose
// manifest was regenerated around them.
func auditFile(fsys FS, dir, name string, fi FileInfo, rep *FsckReport) {
	path := filepath.Join(dir, name)
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		rep.problem(name, "store: %s missing", name)
		return
	}
	if err != nil {
		rep.problem(name, "%v", err)
		return
	}
	defer f.Close()
	hr := &hashReader{r: f, h: sha256.New()}
	var content contentAudit
	switch {
	case name == "tests.csv":
		content = auditTests(hr, path, fi)
	case strings.HasPrefix(name, "drive") && strings.HasSuffix(name, ".csv"):
		content = auditShard(hr, path, fi)
	}
	if !hr.eof && hr.err == nil {
		io.Copy(io.Discard, hr) // read errors land in hr.err
	}
	if hr.err != nil {
		rep.problem(name, "store: hash %s: %v", path, hr.err)
		return
	}
	if err := fi.verify(name, hex.EncodeToString(hr.h.Sum(nil)), hr.n); err != nil {
		rep.problem(name, "%v", err)
		return
	}
	rep.RowsChecked += content.rows
	for _, desc := range content.findings {
		rep.problem(name, "%s", desc)
	}
}

// hashReader passes reads through while feeding every byte to a hash
// and a count; it remembers the first read error and whether EOF was
// reached.
type hashReader struct {
	r   io.Reader
	h   hash.Hash
	n   int64
	err error
	eof bool
}

func (t *hashReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.h.Write(p[:n])
	t.n += int64(n)
	if err == io.EOF {
		t.eof = true
	} else if err != nil && t.err == nil {
		t.err = err
	}
	return n, err
}

// contentAudit is what a strict content scan found in one file, held
// back until the file's checksum has verified.
type contentAudit struct {
	rows     int // rows checked, counted only for a clean parse
	findings []string
}

// auditTests strict-scans tests.csv and checks its row count.
func auditTests(r io.Reader, path string, fi FileInfo) contentAudit {
	loadRep := &LoadReport{}
	err := scanTestRows(r, path, Strict, loadRep, func(TestRow) error { return nil })
	if err != nil {
		return contentAudit{findings: []string{err.Error()}}
	}
	a := contentAudit{rows: loadRep.Rows}
	if loadRep.Rows != fi.Rows {
		a.findings = append(a.findings, fmt.Sprintf("row count %d, manifest says %d", loadRep.Rows, fi.Rows))
	}
	return a
}

// auditShard strict-scans one trace shard: one network throughout,
// the manifest's row count, and strictly increasing timestamps.
func auditShard(r io.Reader, path string, fi FileInfo) contentAudit {
	var network channel.NetworkID
	rows := 0
	last := time.Duration(-1)
	var order string // the first timestamp inversion
	err := trace.ScanRecordsCSV(r, false, nil, func(n channel.NetworkID, rec channel.Record) error {
		if rows == 0 {
			network = n
		} else if n != network {
			return fmt.Errorf("network changed mid-trace: %v then %v", network, n)
		}
		at := rec.Sample.At
		if at <= last && order == "" {
			order = fmt.Sprintf("timestamps not strictly increasing at sample %d (%v after %v)",
				rows, at, last)
		}
		last = at
		rows++
		return nil
	})
	if err != nil {
		return contentAudit{findings: []string{fmt.Sprintf("store: %s: %v", path, err)}}
	}
	a := contentAudit{rows: rows}
	if rows != fi.Rows {
		a.findings = append(a.findings, fmt.Sprintf("row count %d, manifest says %d", rows, fi.Rows))
	}
	if order != "" {
		a.findings = append(a.findings, order)
	}
	return a
}

package main

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"satcell/internal/campaign"
	"satcell/internal/store"
)

// countingFS is a store.FS that counts and times the I/O passing
// through it. The traced runs hand it to the store, the campaign
// supervisor and the streaming analyzer through their FS seam, so the
// store layer is measured from outside without touching its code.
// It is safe for concurrent use: analysis workers read shards in
// parallel.
type countingFS struct {
	inner store.FS

	bytesWritten atomic.Int64
	writeNS      atomic.Int64
	filesWritten atomic.Int64 // files created: temp files and journals
	bytesRead    atomic.Int64
	readNS       atomic.Int64
	filesOpened  atomic.Int64 // regular files opened for reading
	fsyncs       atomic.Int64 // every Sync, directories included
	fsyncNS      atomic.Int64
	// Journal appends are the Syncs on a store.Journal file: each
	// Append writes one line and fsyncs it.
	journalAppends atomic.Int64
	journalFsyncNS atomic.Int64
}

func newCountingFS(inner store.FS) *countingFS { return &countingFS{inner: inner} }

// journalFile reports whether name is one of the store's append-only
// journals: the campaign stage log, the flight recorder's telemetry and
// the export checkpoint.
func journalFile(name string) bool {
	switch filepath.Base(name) {
	case campaign.JournalName, campaign.TelemetryName, store.CheckpointName:
		return true
	}
	return false
}

func (c *countingFS) wrap(f store.File, name string) store.File {
	return &countingFile{File: f, fs: c, journal: journalFile(name)}
}

func (c *countingFS) Open(name string) (store.File, error) {
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	// Directories are opened only to fsync them after a rename.
	if st, ok := f.(interface{ Stat() (os.FileInfo, error) }); ok {
		if fi, err := st.Stat(); err == nil && !fi.IsDir() {
			c.filesOpened.Add(1)
		}
	}
	return c.wrap(f, name), nil
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_CREATE != 0 {
		c.filesWritten.Add(1)
	}
	return c.wrap(f, name), nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (store.File, error) {
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	c.filesWritten.Add(1)
	return c.wrap(f, f.Name()), nil
}

func (c *countingFS) Rename(oldpath, newpath string) error { return c.inner.Rename(oldpath, newpath) }

func (c *countingFS) Remove(name string) error { return c.inner.Remove(name) }

func (c *countingFS) ReadDir(name string) ([]os.DirEntry, error) { return c.inner.ReadDir(name) }

func (c *countingFS) MkdirAll(name string, perm os.FileMode) error {
	return c.inner.MkdirAll(name, perm)
}

// countingFile forwards to the wrapped file, adding bytes, call time
// and fsyncs to its filesystem's counters.
type countingFile struct {
	store.File
	fs      *countingFS
	journal bool
}

func (f *countingFile) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Read(p)
	f.fs.readNS.Add(int64(time.Since(t0)))
	f.fs.bytesRead.Add(int64(n))
	return n, err
}

func (f *countingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.writeNS.Add(int64(time.Since(t0)))
	f.fs.bytesWritten.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(t0))
	f.fs.fsyncs.Add(1)
	f.fs.fsyncNS.Add(d)
	if f.journal {
		f.fs.journalAppends.Add(1)
		f.fs.journalFsyncNS.Add(d)
	}
	return err
}

// writeLayers reports the write side: what the store put on disk and
// how long it waited for it.
func (c *countingFS) writeLayers(m map[string]float64) {
	m["store.bytes_written"] = float64(c.bytesWritten.Load())
	m["store.files_written"] = float64(c.filesWritten.Load())
	m["store.write_s"] = seconds(c.writeNS.Load())
	m["store.fsyncs"] = float64(c.fsyncs.Load())
	m["store.fsync_s"] = seconds(c.fsyncNS.Load())
	m["store.journal_appends"] = float64(c.journalAppends.Load())
	m["store.journal_fsync_s"] = seconds(c.journalFsyncNS.Load())
}

// readLayers reports the read side.
func (c *countingFS) readLayers(m map[string]float64) {
	m["store.bytes_read"] = float64(c.bytesRead.Load())
	m["store.read_s"] = seconds(c.readNS.Load())
	m["store.files_opened"] = float64(c.filesOpened.Load())
}

func seconds(ns int64) float64 { return time.Duration(ns).Seconds() }

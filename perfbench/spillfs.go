package main

import (
	"os"
	"sync/atomic"
	"time"

	"qpi/internal/vfs"
)

// spillFS is the benchmark's view of the vfs spill seam: it creates
// spill files in its own directory and counts files, bytes, open
// descriptors and the time spent in each kind of operation.
type spillFS struct {
	dir string

	files, open              atomic.Int64
	bytesWritten, bytesRead  atomic.Int64
	writeNs, readNs, otherNs atomic.Int64 // other: create, seek, close, remove
}

// spillStats is a snapshot of spillFS counters.
type spillStats struct {
	files, open, written, read     int64
	writeTime, readTime, otherTime time.Duration
}

func (s spillStats) io() time.Duration { return s.writeTime + s.readTime + s.otherTime }

// minus returns the counters accrued since o (open stays current).
func (s spillStats) minus(o spillStats) spillStats {
	return spillStats{s.files - o.files, s.open, s.written - o.written, s.read - o.read,
		s.writeTime - o.writeTime, s.readTime - o.readTime, s.otherTime - o.otherTime}
}

func (f *spillFS) stats() spillStats {
	return spillStats{f.files.Load(), f.open.Load(), f.bytesWritten.Load(), f.bytesRead.Load(),
		time.Duration(f.writeNs.Load()), time.Duration(f.readNs.Load()), time.Duration(f.otherNs.Load())}
}

func since(t time.Time) int64 { return time.Since(t).Nanoseconds() }

// CreateTemp implements vfs.FS.
func (f *spillFS) CreateTemp(pattern string) (vfs.File, error) {
	t := time.Now()
	file, err := os.CreateTemp(f.dir, pattern)
	f.otherNs.Add(since(t))
	if err != nil {
		return nil, err
	}
	f.files.Add(1)
	f.open.Add(1)
	return &spillFile{File: file, fs: f}, nil
}

// Remove implements vfs.FS.
func (f *spillFS) Remove(name string) error {
	t := time.Now()
	err := os.Remove(name)
	f.otherNs.Add(since(t))
	return err
}

type spillFile struct {
	*os.File
	fs     *spillFS
	closed atomic.Bool
}

func (s *spillFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := s.File.Write(p)
	s.fs.writeNs.Add(since(t))
	s.fs.bytesWritten.Add(int64(n))
	return n, err
}

func (s *spillFile) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := s.File.Read(p)
	s.fs.readNs.Add(since(t))
	s.fs.bytesRead.Add(int64(n))
	return n, err
}

func (s *spillFile) Seek(off int64, whence int) (int64, error) {
	t := time.Now()
	n, err := s.File.Seek(off, whence)
	s.fs.otherNs.Add(since(t))
	return n, err
}

func (s *spillFile) Close() error {
	t := time.Now()
	err := s.File.Close()
	s.fs.otherNs.Add(since(t))
	if s.closed.CompareAndSwap(false, true) {
		s.fs.open.Add(-1)
	}
	return err
}

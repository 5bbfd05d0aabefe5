package wal

import (
	"io"
	"os"
)

// FS abstracts the filesystem under the log and its snapshots. The log
// performs every durability-relevant operation — segment creation and
// appends, fsyncs, snapshot temp-file renames, directory syncs — through
// this interface, so tests can substitute a fault-injecting
// implementation (internal/wal/errfs) and script exactly which disk
// operation fails. Production code uses OSFS.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	// Open opens a file read-only.
	Open(name string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	Stat(name string) (os.FileInfo, error)
}

// File is the open-file surface the log needs: sequential reads for
// recovery scans, positioned reads for the replication stream (which
// starts mid-segment at an indexed offset), appends, fsync, close.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage.
	Sync() error
}

// OSFS returns the real filesystem.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

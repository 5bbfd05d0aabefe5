// Package errfs is a fault-injecting wal.FS for chaos tests: it wraps a
// real filesystem and fails scripted operations — the Nth write to a
// path, every fsync of a segment, a snapshot-installing rename — with a
// chosen error (syscall.ENOSPC, a generic injected error, ...). It can
// also cut writes short and, on an injected fsync failure, drop the
// unsynced tail of the file to model what power loss does to data that
// never left the page cache.
package errfs

import (
	"errors"
	"os"
	"strings"
	"sync"

	"repro/internal/wal"
)

// ErrInjected is the default error returned by a Fault with a nil Err.
var ErrInjected = errors.New("errfs: injected fault")

// Op names a filesystem operation a Fault can target.
type Op string

const (
	// OpCreate matches OpenFile calls that create or open for writing
	// (segment creation, snapshot temp files).
	OpCreate Op = "create"
	// OpOpen matches read-only Open calls (recovery scans, dir syncs).
	OpOpen Op = "open"
	// OpRead matches File.Read and File.ReadAt (recovery scans, the
	// replication stream's committed-prefix reads).
	OpRead Op = "read"
	// OpWrite matches File.Write on files opened through the injector.
	OpWrite Op = "write"
	// OpSync matches File.Sync (fsync of files and directories).
	OpSync Op = "sync"
	// OpRename matches Rename (snapshot installs).
	OpRename Op = "rename"
	// OpRemove matches Remove.
	OpRemove Op = "remove"
	// OpTruncate matches Truncate.
	OpTruncate Op = "truncate"
)

// Fault is one scripted failure rule. A rule matches calls of its Op
// whose path contains Path (empty matches every path); it lets After
// matching calls succeed, then fires on each later one — Times times if
// Times > 0, forever if Times == 0.
type Fault struct {
	Op   Op
	Path string
	// After is how many matching calls succeed before the fault fires.
	After int
	// Times bounds how often the fault fires; 0 means no bound.
	Times int
	// Err is the injected error; nil selects ErrInjected.
	Err error
	// Short, for OpWrite, writes only the first Short bytes of the
	// payload through to the real file before failing — a torn record.
	Short int
	// DropUnsynced, for OpSync, truncates the file back to its
	// last-synced size when the fault fires: the unsynced tail behaves
	// as if it never left the page cache and the machine lost power.
	DropUnsynced bool
	// Gate blocks the matched call until the channel is closed — a
	// deterministic way to hold a flush leader inside its sync while
	// other appenders pile into the next batch. With a nil Err (and no
	// DropUnsynced or Short) the gated call then proceeds for real;
	// otherwise it fails as usual once released.
	Gate <-chan struct{}
}

type faultState struct {
	Fault
	seen  int // matching calls observed
	fired int // times this fault has fired
}

// FS wraps a wal.FS with scripted fault injection. It is safe for
// concurrent use.
type FS struct {
	real wal.FS

	mu       sync.Mutex
	faults   []*faultState
	injected int
}

// New wraps real with the given fault script. Faults are consulted in
// order; the first rule that matches and is due fires.
func New(real wal.FS, faults ...Fault) *FS {
	fs := &FS{real: real}
	for _, f := range faults {
		fs.faults = append(fs.faults, &faultState{Fault: f})
	}
	return fs
}

// Add appends a fault rule to a running injector.
func (f *FS) Add(fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = append(f.faults, &faultState{Fault: fault})
}

// Injected reports how many faults have fired so far.
func (f *FS) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// match finds the first due fault for (op, path) and counts it as
// fired. A gated fault holds the call until its gate opens; match then
// returns the fault only if it fails the call (nil for a gated success).
func (f *FS) match(op Op, path string) *Fault {
	var hit *Fault
	f.mu.Lock()
	for _, ft := range f.faults {
		if ft.Op != op {
			continue
		}
		if ft.Path != "" && !strings.Contains(path, ft.Path) {
			continue
		}
		ft.seen++
		if ft.seen <= ft.After {
			continue
		}
		if ft.Times > 0 && ft.fired >= ft.Times {
			continue
		}
		ft.fired++
		f.injected++
		out := ft.Fault
		hit = &out
		break
	}
	f.mu.Unlock()
	if hit != nil && hit.Gate != nil {
		<-hit.Gate
		if hit.Err == nil && !hit.DropUnsynced && hit.Short == 0 {
			return nil
		}
	}
	return hit
}

func faultErr(ft *Fault) error {
	if ft.Err != nil {
		return ft.Err
	}
	return ErrInjected
}

func (f *FS) MkdirAll(path string, perm os.FileMode) error { return f.real.MkdirAll(path, perm) }
func (f *FS) ReadDir(name string) ([]os.DirEntry, error)   { return f.real.ReadDir(name) }
func (f *FS) ReadFile(name string) ([]byte, error)         { return f.real.ReadFile(name) }
func (f *FS) Stat(name string) (os.FileInfo, error)        { return f.real.Stat(name) }

func (f *FS) Open(name string) (wal.File, error) {
	if ft := f.match(OpOpen, name); ft != nil {
		return nil, faultErr(ft)
	}
	file, err := f.real.Open(name)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: f, path: name, real: file}, nil
}

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if ft := f.match(OpCreate, name); ft != nil {
		return nil, faultErr(ft)
	}
	file, err := f.real.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ef := &errFile{fs: f, path: name, real: file}
	if flag&os.O_APPEND != 0 {
		// Appends resume at the existing size; anything already on disk
		// counts as synced (it survived whatever put it there).
		if st, err := f.real.Stat(name); err == nil {
			ef.size = st.Size()
			ef.synced = st.Size()
		}
	}
	return ef, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	if ft := f.match(OpRename, newpath); ft != nil {
		return faultErr(ft)
	}
	return f.real.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	if ft := f.match(OpRemove, name); ft != nil {
		return faultErr(ft)
	}
	return f.real.Remove(name)
}

func (f *FS) Truncate(name string, size int64) error {
	if ft := f.match(OpTruncate, name); ft != nil {
		return faultErr(ft)
	}
	return f.real.Truncate(name, size)
}

// errFile wraps an open file, tracking written vs fsynced bytes so an
// injected sync failure with DropUnsynced can cut the file back to what
// stable storage would actually hold.
type errFile struct {
	fs   *FS
	path string
	real wal.File

	mu     sync.Mutex
	size   int64 // bytes written through this handle (plus initial size)
	synced int64 // size at the last successful Sync
}

func (f *errFile) Read(p []byte) (int, error) {
	if ft := f.fs.match(OpRead, f.path); ft != nil {
		return 0, faultErr(ft)
	}
	return f.real.Read(p)
}

func (f *errFile) ReadAt(p []byte, off int64) (int, error) {
	if ft := f.fs.match(OpRead, f.path); ft != nil {
		return 0, faultErr(ft)
	}
	return f.real.ReadAt(p, off)
}

func (f *errFile) Close() error { return f.real.Close() }

func (f *errFile) Write(p []byte) (int, error) {
	if ft := f.fs.match(OpWrite, f.path); ft != nil {
		short := ft.Short
		if short > len(p) {
			short = len(p)
		}
		n := 0
		if short > 0 {
			n, _ = f.real.Write(p[:short])
			f.mu.Lock()
			f.size += int64(n)
			f.mu.Unlock()
		}
		return n, faultErr(ft)
	}
	n, err := f.real.Write(p)
	f.mu.Lock()
	f.size += int64(n)
	f.mu.Unlock()
	return n, err
}

func (f *errFile) Sync() error {
	if ft := f.fs.match(OpSync, f.path); ft != nil {
		if ft.DropUnsynced {
			f.mu.Lock()
			f.fs.real.Truncate(f.path, f.synced)
			f.size = f.synced
			f.mu.Unlock()
		}
		return faultErr(ft)
	}
	if err := f.real.Sync(); err != nil {
		return err
	}
	f.mu.Lock()
	f.synced = f.size
	f.mu.Unlock()
	return nil
}

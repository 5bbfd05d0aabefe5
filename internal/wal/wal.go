// Package wal implements the write-ahead log behind the durable juryd
// daemon: an append-only sequence of length-prefixed, CRC32-checksummed
// records split across rotating segment files, plus atomically-replaced
// JSON snapshots that bound replay time (snapshot.go).
//
// Format. A segment file is named wal-<first>.log, where <first> is the
// 16-hex-digit LSN of its first record; a record is
//
//	[4-byte little-endian payload length][4-byte CRC32-C of payload][payload]
//
// Records are numbered by position: the i-th record of a segment has LSN
// first+i, so the file names and record counts locate every record. In
// memory each segment also keeps a sparse LSN → byte-offset index (one
// mark every markEvery records) so the replication stream can start
// reading at a mark instead of byte 0; the index is never written to
// disk. Appends go to the newest segment and rotate to a fresh one when
// the configured size is exceeded.
//
// Crash semantics. Only the tail of the newest segment can be torn by a
// crash (appends are sequential); Open scans that segment, truncates
// anything after the last record whose length and checksum verify, and
// reports how many bytes were dropped. A record that fails verification
// anywhere else is corruption, and Replay fails with ErrCorrupt rather
// than silently skipping it. Decoding never panics on arbitrary bytes
// (fuzzed in fuzz_test.go).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LSN is a log sequence number: records are numbered 1, 2, 3, ... across
// segment boundaries. 0 means "before the first record".
type LSN uint64

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 4 << 20

// DefaultMaxBatchBytes bounds the framed bytes staged for one group-commit
// flush when Options.MaxBatchBytes is zero.
const DefaultMaxBatchBytes = 1 << 20

// MaxRecordBytes bounds one record's payload; a decoded length above it is
// treated as a torn/corrupt record, which keeps arbitrary bytes from
// provoking huge allocations.
const MaxRecordBytes = 16 << 20

// headerSize is the per-record framing overhead: 4 length + 4 CRC bytes.
const headerSize = 8

// markEvery is the spacing, in records, of a segment's LSN → byte-offset
// marks: a ReadCommitted starts scanning at most markEvery-1 records
// before the LSN it was asked for, however full the segment is.
const markEvery = 64

// castagnoli is the CRC32-C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by the log.
var (
	ErrClosed   = errors.New("wal: log closed")
	ErrCorrupt  = errors.New("wal: corrupt log")
	ErrTooLarge = errors.New("wal: record exceeds MaxRecordBytes")
	// ErrFailed marks a log poisoned by an earlier disk error: the first
	// failing append returns the *IOError itself, every later one returns
	// an error wrapping both ErrFailed and that original cause.
	ErrFailed = errors.New("wal: log failed")
)

// IOError is a disk operation that failed underneath the log. Append and
// rotation surface every write, fsync, create, rename and directory-sync
// failure as one of these — callers can switch on Op to report which
// stage of durability broke, and errors.Is/As through Err to the root
// cause (e.g. syscall.ENOSPC). An IOError from Append means the record
// is NOT durable and the mutation it journals must not be acknowledged.
type IOError struct {
	// Op names the failed operation: "write", "fsync", "create",
	// "rename", "dirsync" or "close".
	Op string
	// Path is the file the operation targeted.
	Path string
	// Err is the underlying error.
	Err error
}

func (e *IOError) Error() string {
	return fmt.Sprintf("wal: %s %s: %v", e.Op, filepath.Base(e.Path), e.Err)
}

func (e *IOError) Unwrap() error { return e.Err }

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold; 0 selects
	// DefaultSegmentBytes. A record larger than the threshold still goes
	// into a single (oversized) segment.
	SegmentBytes int64
	// Fsync syncs the segment file after every append: durable against
	// power loss at the price of one disk flush per record. Without it,
	// appends survive a process crash (the page cache persists) but not a
	// machine crash.
	Fsync bool
	// FS is the filesystem the log lives on; nil selects the real one.
	// Tests substitute a fault injector (internal/wal/errfs) here.
	FS FS
	// GroupCommit batches concurrent appends into shared flushes: Begin
	// stages framed records and reserves their LSNs, and the first waiter
	// becomes the leader that writes the whole batch with one Write and
	// one Sync, releasing every waiter at or below the synced watermark.
	// Only meaningful with Fsync — without it there is no flush to share,
	// and the log keeps the per-record path bit-for-bit.
	GroupCommit bool
	// MaxBatchBytes caps the framed bytes staged for one group-commit
	// flush; 0 selects DefaultMaxBatchBytes. Appenders block (backpressure)
	// while the buffer is full until a leader drains it.
	MaxBatchBytes int64
	// OnFlush, if set, is called after every successful group-commit flush
	// with the number of records it made durable — the feed for batch-size
	// observability. It runs with the log's internal lock held, so it must
	// be fast and must not call back into the Log.
	OnFlush func(records int)
}

// OpenInfo reports what Open found on disk.
type OpenInfo struct {
	// Segments is the number of segment files.
	Segments int
	// NextLSN is the LSN the next append will get.
	NextLSN LSN
	// TornBytes is how many trailing bytes of the newest segment were
	// dropped because they did not form a complete, checksummed record.
	TornBytes int64
}

// segment is one on-disk segment file.
type segment struct {
	first LSN
	path  string
	// marks[k] is the byte offset of record first+k*markEvery, so
	// marks[0] is 0. Marks are only ever appended, so a copy of the
	// slice taken under Log.mu stays valid while appends go on. nil
	// means not indexed yet: a sealed segment found at Open gets its
	// marks from the first read that needs them (it never changes).
	marks []int64
}

// Log is an append-only write-ahead log rooted at one directory. It is
// safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	cond   *sync.Cond // broadcast on watermark, poison, flush-state and close transitions
	dir    string
	opts   Options
	fs     FS
	group  bool // opts.Fsync && opts.GroupCommit: batched shared flushes
	segs   []segment
	f      File  // newest segment, opened for append
	size   int64 // flushed bytes in the newest segment (staged batch excluded)
	next   LSN
	failed error // sticky: set on a write error, fails every later append

	// Group-commit state. Begin frames records into buf under mu and
	// reserves their LSNs; the first waiter to find records staged and no
	// flush running becomes the leader, swaps buf out, and writes + syncs
	// it with mu released. synced is the durability watermark: every
	// record at or below it is on stable storage. Invariant: a record
	// above the watermark is either in buf or in the batch an in-flight
	// leader is flushing, so a leader's batch always covers its own LSN.
	buf        []byte
	bufRecords int
	spare      []byte // recycled batch buffer
	flushing   bool   // a leader is writing/syncing outside mu
	synced     LSN
	lastFsync  time.Duration // duration of the most recent flush's sync
}

// segmentName renders the file name of the segment whose first record has
// the given LSN.
func segmentName(first LSN) string {
	return fmt.Sprintf("wal-%016x.log", uint64(first))
}

// parseSegmentName extracts the first LSN from a segment file name.
func parseSegmentName(name string) (LSN, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return LSN(n), true
}

// listSegments returns dir's segment files sorted by first LSN.
func listSegments(fsys FS, dir string) ([]segment, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segment{first: first, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// Open opens (creating if needed) the log in dir, truncating any torn
// record off the tail of the newest segment so the log ends on a clean
// record boundary.
func Open(dir string, opts Options) (*Log, OpenInfo, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if opts.FS == nil {
		opts.FS = OSFS()
	}
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, OpenInfo{}, err
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, OpenInfo{}, err
	}
	l := &Log{dir: dir, opts: opts, fs: fsys, segs: segs}
	l.cond = sync.NewCond(&l.mu)
	l.group = opts.Fsync && opts.GroupCommit
	var info OpenInfo
	if len(segs) == 0 {
		l.next = 1
		if err := l.createSegmentLocked(1); err != nil {
			return nil, OpenInfo{}, err
		}
	} else {
		last := segs[len(segs)-1]
		f, err := fsys.Open(last.path)
		if err != nil {
			return nil, OpenInfo{}, err
		}
		marks, records, valid, scanErr := indexSegment(f)
		closeErr := f.Close()
		if scanErr != nil {
			return nil, OpenInfo{}, scanErr
		}
		if closeErr != nil {
			return nil, OpenInfo{}, closeErr
		}
		st, err := fsys.Stat(last.path)
		if err != nil {
			return nil, OpenInfo{}, err
		}
		if st.Size() > valid {
			info.TornBytes = st.Size() - valid
			if err := fsys.Truncate(last.path, valid); err != nil {
				return nil, OpenInfo{}, err
			}
		}
		l.f, err = fsys.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, OpenInfo{}, err
		}
		l.size = valid
		l.next = last.first + LSN(records)
		l.segs[len(l.segs)-1].marks = marks
	}
	l.synced = l.next - 1 // everything on disk at Open is the durable prefix
	info.Segments = len(l.segs)
	info.NextLSN = l.next
	return l, info, nil
}

// createSegmentLocked starts a fresh segment whose first record will be
// LSN first. Under Fsync the parent directory is synced too: a record
// is only durable if the directory entry of the segment holding it is —
// otherwise power loss right after a rotation could drop the whole new
// segment, acknowledged records included. Callers hold l.mu (or own the
// log exclusively).
func (l *Log) createSegmentLocked(first LSN) error {
	path := filepath.Join(l.dir, segmentName(first))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return &IOError{Op: "create", Path: path, Err: err}
	}
	if l.opts.Fsync {
		if err := syncDir(l.fs, l.dir); err != nil {
			f.Close()
			return &IOError{Op: "dirsync", Path: l.dir, Err: err}
		}
	}
	l.segs = append(l.segs, segment{first: first, path: path, marks: []int64{0}})
	l.f = f
	l.size = 0
	return nil
}

// markLocked records that record lsn starts at byte off of the newest
// segment, if lsn falls on a mark. Callers hold l.mu.
func (l *Log) markLocked(lsn LSN, off int64) {
	seg := &l.segs[len(l.segs)-1]
	if n := lsn - seg.first; n > 0 && n%markEvery == 0 {
		seg.marks = append(seg.marks, off)
	}
}

// indexSegment scans a segment from its first byte and returns its marks,
// its record count and the offset just past its last valid record.
func indexSegment(r io.Reader) (marks []int64, records int, valid int64, err error) {
	marks = []int64{0}
	var off int64
	valid, _, err = ScanSegment(bufio.NewReaderSize(r, 64<<10), func(payload []byte) error {
		if records > 0 && records%markEvery == 0 {
			marks = append(marks, off)
		}
		records++
		off += headerSize + int64(len(payload))
		return nil
	})
	return marks, records, valid, err
}

// syncDir flushes a directory's entries (file creations, renames) to
// stable storage.
func syncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// rotateLocked closes the current segment and starts the next one.
func (l *Log) rotateLocked() error {
	path := l.segs[len(l.segs)-1].path
	if err := l.f.Sync(); err != nil {
		return &IOError{Op: "fsync", Path: path, Err: err}
	}
	if err := l.f.Close(); err != nil {
		return &IOError{Op: "close", Path: path, Err: err}
	}
	return l.createSegmentLocked(l.next)
}

// Append writes one record and returns its LSN. The write is a single
// syscall, so a crash leaves at most one torn record at the tail; with
// Options.Fsync the record is flushed to stable storage before Append
// returns. Disk failures surface as *IOError (never a panic) and poison
// the log: the failing append reports the IOError itself, every later
// one fails with an error wrapping ErrFailed and the original cause.
// Callers must treat any append error as "this record is not durable".
func (l *Log) Append(payload []byte) (LSN, error) {
	p, err := l.Begin(payload)
	if err != nil {
		return 0, err
	}
	if err := p.Wait(); err != nil {
		return 0, err
	}
	return p.lsn, nil
}

// Pending is one record accepted by Begin: an LSN reservation awaiting
// durability. It is intended for a single goroutine; Wait may be called
// more than once and keeps returning the same outcome.
type Pending struct {
	l   *Log
	lsn LSN

	done    bool // the outcome below is final
	err     error
	fsync   time.Duration
	leader  bool
	records int
}

// LSN returns the reserved log sequence number.
func (p *Pending) LSN() LSN { return p.lsn }

// Done reports whether the record's fate was already decided when Begin
// returned — true on the per-record path, where Begin performs the write
// and flush itself and Wait just replays the stored outcome.
func (p *Pending) Done() bool { return p.done }

// FsyncDuration is the time spent in the flush that made this record
// durable, valid after Wait: the record's own fsync on the per-record
// path, the shared batch sync in group-commit mode.
func (p *Pending) FsyncDuration() time.Duration { return p.fsync }

// Leader reports whether this waiter led the flush that covered it.
func (p *Pending) Leader() bool { return p.leader }

// Records is the size of the batch this waiter flushed as leader
// (0 for followers and on the per-record path).
func (p *Pending) Records() int { return p.records }

// Begin reserves the next LSN for payload and stages the framed record
// for durability, returning a Pending whose Wait blocks until the record
// is on stable storage. In group-commit mode (Options.Fsync with
// Options.GroupCommit) Begin only frames and buffers — the batched write
// and the shared fsync happen under Wait, led by the first waiter — so a
// caller can reserve its LSN under its own ordering lock and wait for
// the flush outside it. In every other mode Begin performs the full
// per-record append itself.
func (l *Log) Begin(payload []byte) (*Pending, error) {
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	rec := appendFrame(make([]byte, 0, headerSize+len(payload)), payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil, ErrClosed
	}
	if l.failed != nil {
		return nil, fmt.Errorf("%w: %w", ErrFailed, l.failed)
	}
	if !l.group {
		lsn, fsyncDur, err := l.appendLocked(rec)
		if err != nil {
			return nil, err
		}
		return &Pending{l: l, lsn: lsn, done: true, fsync: fsyncDur}, nil
	}
	// Backpressure: a full batch buffer means flushes are behind; park
	// until a leader drains it.
	for int64(len(l.buf)) >= l.opts.MaxBatchBytes && l.bufRecords > 0 {
		l.cond.Wait()
		if l.f == nil {
			return nil, ErrClosed
		}
		if l.failed != nil {
			return nil, fmt.Errorf("%w: %w", ErrFailed, l.failed)
		}
	}
	// Rotation happens on the same cumulative-bytes boundary as the
	// per-record path (l.size counts flushed bytes, the buffer staged
	// ones), so batched and unbatched logs lay out identical segments.
	// The staged records must drain into the old segment first: the
	// LSN-to-segment mapping is positional.
	for {
		staged := l.size + int64(len(l.buf))
		if staged == 0 || staged+int64(len(rec)) <= l.opts.SegmentBytes {
			break
		}
		if l.flushing || l.bufRecords > 0 {
			if err := l.drainLocked(); err != nil {
				return nil, err
			}
			if l.f == nil {
				return nil, ErrClosed
			}
			continue // the drain dropped mu for the I/O; re-evaluate
		}
		if err := l.rotateLocked(); err != nil {
			l.failed = err
			l.cond.Broadcast()
			return nil, err
		}
		break
	}
	l.markLocked(l.next, l.size+int64(len(l.buf)))
	l.buf = append(l.buf, rec...)
	l.bufRecords++
	lsn := l.next
	l.next++
	return &Pending{l: l, lsn: lsn}, nil
}

// Wait blocks until the record is durable, leading the batch flush if no
// one else is. It returns nil once the durability watermark covers the
// record's LSN; on a flush failure the leader surfaces the *IOError
// itself and every other waiter gets an error wrapping ErrFailed and the
// cause, matching Append's poison contract.
func (p *Pending) Wait() error {
	if p.done {
		return p.err
	}
	l := p.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.synced >= p.lsn {
			p.done = true
			p.fsync = l.lastFsync
			return nil
		}
		if l.failed != nil {
			p.done = true
			p.err = fmt.Errorf("%w: %w", ErrFailed, l.failed)
			return p.err
		}
		if l.f == nil {
			p.done = true
			p.err = ErrClosed
			return p.err
		}
		if !l.flushing && l.bufRecords > 0 {
			if err := l.flushLocked(p); err != nil {
				p.done = true
				p.err = err
				return p.err
			}
			continue
		}
		l.cond.Wait()
	}
}

// WaitDurable blocks until every record accepted before the call is on
// stable storage — the durability barrier behind duplicate-ack paths,
// where a retried mutation may only be acknowledged once the original it
// dedups against is itself durable. On the per-record path every
// accepted append is already flushed, so it returns immediately.
func (l *Log) WaitDurable() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	if !l.group {
		return nil
	}
	target := l.next - 1
	for {
		if l.synced >= target {
			return nil
		}
		if l.failed != nil {
			return fmt.Errorf("%w: %w", ErrFailed, l.failed)
		}
		if l.f == nil {
			return ErrClosed
		}
		if !l.flushing && l.bufRecords > 0 {
			if err := l.flushLocked(nil); err != nil {
				return err
			}
			continue
		}
		l.cond.Wait()
	}
}

// appendLocked writes one framed record through the per-record path:
// rotate if due, one write, and under Options.Fsync one flush. Callers
// hold l.mu and have checked the closed and poisoned states.
func (l *Log) appendLocked(rec []byte) (lsn LSN, fsyncDur time.Duration, err error) {
	if l.size > 0 && l.size+int64(len(rec)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.failed = err
			l.cond.Broadcast()
			return 0, 0, err
		}
	}
	path := l.segs[len(l.segs)-1].path
	if _, err := l.f.Write(rec); err != nil {
		l.failed = &IOError{Op: "write", Path: path, Err: err}
		l.cond.Broadcast()
		return 0, 0, l.failed
	}
	l.markLocked(l.next, l.size)
	l.size += int64(len(rec))
	if l.opts.Fsync {
		syncStart := time.Now()
		serr := l.f.Sync()
		fsyncDur = time.Since(syncStart)
		if serr != nil {
			l.failed = &IOError{Op: "fsync", Path: path, Err: serr}
			l.cond.Broadcast()
			return 0, fsyncDur, l.failed
		}
	}
	lsn = l.next
	l.next++
	l.synced = lsn     // the watermark stays true on the per-record path too
	l.cond.Broadcast() // wake WaitSynced long-pollers (replication stream)
	return lsn, fsyncDur, nil
}

// flushLocked writes the staged batch with one Write and one Sync, then
// advances the durability watermark and wakes every waiter. The caller
// holds l.mu and has checked that no flush is running; the lock is
// released for the disk I/O and reacquired before returning. p, when
// non-nil, is the leading waiter: on success its flush stats are filled
// in, and on failure the returned *IOError is the leader's to surface
// while the sticky poison fails every other waiter with ErrFailed.
func (l *Log) flushLocked(p *Pending) error {
	batch := l.buf
	records := l.bufRecords
	upTo := l.next - 1
	l.buf = l.spare[:0]
	l.spare = nil
	l.bufRecords = 0
	l.flushing = true
	f := l.f
	path := l.segs[len(l.segs)-1].path
	l.mu.Unlock()

	var ioErr *IOError
	var syncDur time.Duration
	if _, err := f.Write(batch); err != nil {
		ioErr = &IOError{Op: "write", Path: path, Err: err}
	} else {
		syncStart := time.Now()
		serr := f.Sync()
		syncDur = time.Since(syncStart)
		if serr != nil {
			ioErr = &IOError{Op: "fsync", Path: path, Err: serr}
		}
	}

	l.mu.Lock()
	l.flushing = false
	if cap(batch) > cap(l.spare) {
		l.spare = batch[:0]
	}
	if ioErr != nil {
		if l.failed == nil {
			l.failed = ioErr
		}
		l.cond.Broadcast()
		return ioErr
	}
	l.size += int64(len(batch))
	l.synced = upTo
	l.lastFsync = syncDur
	if p != nil {
		p.leader = true
		p.records = records
	}
	l.cond.Broadcast()
	if l.opts.OnFlush != nil {
		l.opts.OnFlush(records)
	}
	return nil
}

// drainLocked makes every staged record durable before returning: it
// waits out an in-flight flush, then leads a flush of whatever is still
// buffered. Callers hold l.mu; the lock may be dropped while waiting or
// flushing. Returns the wrapped sticky poison if the log had already
// failed, or the flush's own *IOError if this drain broke it.
func (l *Log) drainLocked() error {
	for l.flushing {
		l.cond.Wait()
	}
	if l.f == nil {
		return ErrClosed
	}
	if l.failed != nil {
		return fmt.Errorf("%w: %w", ErrFailed, l.failed)
	}
	if l.bufRecords > 0 {
		if err := l.flushLocked(nil); err != nil {
			return err
		}
	}
	return nil
}

// Failed reports the sticky disk error that poisoned the log, or nil.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Sync makes every record accepted so far durable: it drains any staged
// group-commit batch, then flushes the newest segment to stable storage.
// It honors the poison contract Append does: a poisoned log refuses with
// an error wrapping ErrFailed and the original cause (a Sync on a failed
// log must never report success), and a Sync that itself fails records
// the poison — so every later append fails fast — and surfaces the
// *IOError.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	if l.failed != nil {
		return fmt.Errorf("%w: %w", ErrFailed, l.failed)
	}
	if err := l.drainLocked(); err != nil {
		return err
	}
	if l.f == nil {
		return ErrClosed
	}
	path := l.segs[len(l.segs)-1].path
	if err := l.f.Sync(); err != nil {
		l.failed = &IOError{Op: "fsync", Path: path, Err: err}
		l.cond.Broadcast()
		return l.failed
	}
	return nil
}

// Close makes the log durable and closes it: staged group-commit records
// are flushed, the newest segment synced, and the file closed. Further
// appends fail with ErrClosed. A dirty close — the log was already
// poisoned, or the final flush, sync or close itself fails — is recorded
// in the sticky poison and returned as an error, so shutdown paths can
// distinguish "closed clean" from "closed with an unsynced tail"; closing
// an already-closed dirty log keeps reporting it. A poisoned log's final
// sync is skipped rather than retried: after a failed fsync the kernel
// may have dropped the dirty pages, and a retry reporting success would
// be a lie.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.f == nil {
		if l.failed != nil {
			return fmt.Errorf("%w: %w", ErrFailed, l.failed)
		}
		return nil
	}
	path := l.segs[len(l.segs)-1].path
	var dirty error
	if l.failed != nil {
		dirty = fmt.Errorf("%w: %w", ErrFailed, l.failed)
	} else {
		if l.bufRecords > 0 {
			if err := l.flushLocked(nil); err != nil {
				dirty = err
			}
		}
		if dirty == nil && l.f != nil {
			if err := l.f.Sync(); err != nil {
				l.failed = &IOError{Op: "fsync", Path: path, Err: err}
				dirty = l.failed
			}
		}
	}
	if l.f == nil { // a concurrent Close slipped in while we flushed
		l.cond.Broadcast()
		return dirty
	}
	closeErr := l.f.Close()
	l.f = nil
	l.cond.Broadcast()
	if dirty != nil {
		return dirty
	}
	if closeErr != nil {
		l.failed = &IOError{Op: "close", Path: path, Err: closeErr}
		return l.failed
	}
	return nil
}

// NextLSN returns the LSN the next append will get; NextLSN()-1 is the
// LSN of the last appended record.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Segments returns the number of segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Replay calls fn for every record with LSN >= from, in order. It fails
// with ErrCorrupt on a record that does not verify (outside the tail Open
// already truncated) or on a gap between segments.
func (l *Log) Replay(from LSN, fn func(lsn LSN, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].first <= from {
			continue // every record of this segment is below from
		}
		f, err := l.fs.Open(seg.path)
		if err != nil {
			return err
		}
		lsn := seg.first
		_, torn, err := ScanSegment(f, func(payload []byte) error {
			this := lsn
			lsn++
			if this < from {
				return nil
			}
			return fn(this, payload)
		})
		closeErr := f.Close()
		if err != nil {
			// Name the segment so a failed replay diagnoses which file to
			// inspect, not just which LSN.
			return fmt.Errorf("segment %s: %w", filepath.Base(seg.path), err)
		}
		if closeErr != nil {
			return closeErr
		}
		if torn {
			return fmt.Errorf("%w: unverifiable record after lsn %d in %s",
				ErrCorrupt, lsn-1, filepath.Base(seg.path))
		}
		if i+1 < len(segs) && segs[i+1].first != lsn {
			return fmt.Errorf("%w: segment %s ends at lsn %d but %s starts at %d",
				ErrCorrupt, filepath.Base(seg.path), lsn-1,
				filepath.Base(segs[i+1].path), segs[i+1].first)
		}
	}
	return nil
}

// TruncateBefore deletes segments every record of which has LSN < lsn —
// the log-truncation step after a snapshot covering lsn-1. The newest
// segment is always kept (it carries the next-LSN position even when
// empty). It returns how many segment files were removed.
func (l *Log) TruncateBefore(lsn LSN) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	kept := l.segs[:0]
	for i, seg := range l.segs {
		if i+1 < len(l.segs) && l.segs[i+1].first <= lsn {
			if err := l.fs.Remove(seg.path); err != nil {
				kept = append(kept, l.segs[i:]...)
				l.segs = kept
				return removed, err
			}
			removed++
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return removed, nil
}

// ScanSegment reads framed records from r until end of input or the first
// record that does not verify, calling fn with each valid payload (the
// slice is reused; fn must not retain it). It returns the byte offset
// just past the last valid record and whether the input ended mid-record
// or on an unverifiable one (torn). err carries fn failures and reader
// errors other than running out of bytes; arbitrary input never panics.
func ScanSegment(r io.Reader, fn func(payload []byte) error) (valid int64, torn bool, err error) {
	var header [headerSize]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return valid, false, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, true, nil
			}
			return valid, false, err
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		if length > MaxRecordBytes {
			return valid, true, nil
		}
		if cap(buf) < int(length) {
			// Grow in bounded chunks so a corrupt length claim cannot
			// force a huge allocation before the short read is noticed.
			buf = make([]byte, 0, min(int(length), 64<<10))
		}
		buf = buf[:0]
		remaining := int(length)
		short := false
		for remaining > 0 {
			chunk := min(remaining, 64<<10)
			start := len(buf)
			buf = append(buf, make([]byte, chunk)...)
			n, err := io.ReadFull(r, buf[start:])
			buf = buf[:start+n]
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					short = true
					break
				}
				return valid, false, err
			}
			remaining -= chunk
		}
		if short {
			return valid, true, nil
		}
		if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(header[4:8]) {
			return valid, true, nil
		}
		if err := fn(buf); err != nil {
			return valid, false, err
		}
		valid += headerSize + int64(length)
	}
}

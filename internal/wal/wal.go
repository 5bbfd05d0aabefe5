// Package wal implements the write-ahead log behind the durable juryd
// daemon: an append-only sequence of length-prefixed, CRC32-checksummed
// records split across rotating segment files, plus atomically-replaced
// JSON snapshots that bound replay time (snapshot.go). It owns every
// write to the data directory those files share (dir.go).
//
// Format. A segment file is named wal-<first>.log, where <first> is the
// 16-hex-digit LSN of its first record; a record is
//
//	[4-byte little-endian payload length][4-byte CRC32-C of payload][payload]
//
// Records are numbered by position: the i-th record of a segment has LSN
// first+i, so the file names and record counts locate every record. In
// memory each segment also keeps a sparse LSN → byte-offset index (one
// mark every markEvery records), built by Open's scan of every segment
// and extended as records are appended, so a read of the durable prefix
// starts at a mark instead of byte 0; the index is never written to
// disk. Appends go to the newest segment and rotate to a fresh one when
// the configured size is exceeded.
//
// Writes. Begin stages a record and reserves its LSN; Wait(lsn) makes it
// durable. Records staged together are written (and under Fsync synced)
// as one batch by whichever waiter finds them staged with no flush
// running; the others park until the durability watermark covers them.
// Wait, WaitDurable, Close, and Begin when the staging buffer is full or
// the segment must rotate all wait through that one loop (waitLocked),
// and all of them refuse with ErrFailed once a disk error has poisoned
// the log.
//
// Reads. One reader walks the durable prefix in the segment files,
// checking each record's CRC once and copying the frames it verified:
// ReadCommitted (the replication stream) and Replay (recovery) both go
// through it, so both refuse a from below the oldest retained segment
// with ErrTruncated and a damaged prefix with ErrCorrupt.
//
// Crash semantics. Only the tail of the newest segment can be torn by a
// crash (appends are sequential); Open scans that segment, truncates
// anything after the last record whose length and checksum verify, and
// reports how many bytes were dropped. A record that fails verification
// anywhere else is corruption, and reads fail with ErrCorrupt rather
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
	"sync"
	"time"
)

// LSN is a log sequence number: records are numbered 1, 2, 3, ... across
// segment boundaries. 0 means "before the first record".
type LSN uint64

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 4 << 20

// MaxBatchBytes bounds the framed bytes staged ahead of one flush: an
// appender that finds that much staged waits (backpressure) until it is
// durable, leading the flush if none is running. It is also
// ReadCommitted's default read size.
const MaxBatchBytes = 1 << 20

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

// tailBytes bounds the newest-segment tail: the last durable frames of
// the newest segment that the log keeps in memory, so a caught-up
// stream poll (ReadCommitted) is answered without opening the file.
// Once a flush would push the tail past tailBytes it keeps only its
// newest tailBytes/2, so compaction copies are amortised over at least
// that many flushed bytes.
const tailBytes = 64 << 10

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
	// Fsync syncs the segment file after every flush: durable against
	// power loss at the price of one disk flush per batch of records
	// staged together. Without it, appends survive a process crash (the
	// page cache persists) but not a machine crash.
	Fsync bool
	// FS is the filesystem the log lives on; nil selects the real one.
	// Tests substitute a fault injector (internal/wal/errfs) here.
	FS FS
	// OnFlush, if set, is called after every successful flush with the
	// number of records it made durable — the feed for batch-size
	// observability. It runs with the log's internal lock held, so it must
	// be fast and must not call back into the Log.
	OnFlush func(records int)
	// OnRead, if set, is called by every ReadCommitted that reads
	// records, with whether the newest-segment tail answered it (true)
	// or the segment files did (false). It runs without the log's lock.
	OnRead func(fromTail bool)
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
	// marks[0] is 0. Open builds them for every segment it finds; after
	// that they are appended as records are staged and cut back only
	// past the watermark by a failed flush, so the marks a copy taken
	// under Log.mu uses (those at or below the watermark then) stay valid
	// while appends go on.
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
	segs   []segment
	f      File  // newest segment, opened for append
	size   int64 // bytes of the newest segment written or being written (staged ones excluded)
	next   LSN
	failed error // sticky: set on a write error, fails every later append

	// Write state. Begin frames records into buf under mu and reserves
	// their LSNs; the first waiter to find records staged and no flush
	// running becomes the leader, swaps buf out, and writes (and under
	// Fsync syncs) it with mu released. synced is the durability
	// watermark: every record at or below it is in the log. Invariant: a
	// record above the watermark is either in buf or in the batch an
	// in-flight leader is flushing, so a leader's batch always covers its
	// own LSN.
	buf        []byte
	bufRecords int
	spare      []byte // recycled batch buffer
	flushing   bool   // a leader is writing/syncing outside mu
	synced     LSN
	lastFsync  time.Duration // duration of the most recent flush's sync

	// Newest-segment tail: the newest segment's last durable frames,
	// byte-identical to the file, holding records tailFirst..synced;
	// tailOffs[i] is the segment byte offset of record tailFirst+i. Only
	// a successful flush appends to it; a new segment and Open start it
	// empty (tailFirst = next). Bounded by tailBytes.
	tail      []byte
	tailOffs  []int64
	tailFirst LSN
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
		if first, ok := segmentFile.parse(e.Name()); ok {
			segs = append(segs, segment{first: first, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// Open opens (creating if needed) the log in dir, indexing every
// segment and truncating any torn record off the tail of the newest one
// so the log ends on a clean record boundary.
func Open(dir string, opts Options) (*Log, OpenInfo, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
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
	var info OpenInfo
	if len(segs) == 0 {
		l.next = 1
		if err := l.createSegmentLocked(1); err != nil {
			return nil, OpenInfo{}, err
		}
	} else {
		// A sealed segment's scan only indexes it: a record there that
		// does not verify is corruption, which reads report.
		var records int
		var valid int64
		for i := range segs {
			if segs[i].marks, records, valid, err = indexSegment(fsys, segs[i].path); err != nil {
				return nil, OpenInfo{}, err
			}
		}
		last := segs[len(segs)-1]
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
		// A rotation does not sync the segment it seals, so under Fsync
		// the cut is synced here, before a rotation could seal it.
		if info.TornBytes > 0 && opts.Fsync {
			if err := l.f.Sync(); err != nil {
				l.f.Close()
				return nil, OpenInfo{}, &IOError{Op: "fsync", Path: last.path, Err: err}
			}
		}
		l.size = valid
		l.next = last.first + LSN(records)
		l.tailFirst = l.next
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
	path := filepath.Join(l.dir, segmentFile.name(first))
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
	l.tail, l.tailOffs, l.tailFirst = l.tail[:0], l.tailOffs[:0], first
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

// indexSegment scans the segment file at path from its first byte and
// returns its marks, its record count and the offset just past its last
// valid record.
func indexSegment(fsys FS, path string) (marks []int64, records int, valid int64, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	marks = []int64{0}
	var off int64
	valid, _, err = ScanSegment(bufio.NewReaderSize(f, 64<<10), func(payload []byte) error {
		if records > 0 && records%markEvery == 0 {
			marks = append(marks, off)
		}
		records++
		off += headerSize + int64(len(payload))
		return nil
	})
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("segment %s: %w", filepath.Base(path), err)
	}
	return marks, records, valid, nil
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

// rotateLocked closes the current segment and starts the next one. It
// runs only once every staged record has flushed, so under Fsync the
// segment's bytes are already synced, and without Fsync no sync is
// promised: closing it syncs nothing.
func (l *Log) rotateLocked() error {
	path := l.segs[len(l.segs)-1].path
	if err := l.f.Close(); err != nil {
		return &IOError{Op: "close", Path: path, Err: err}
	}
	return l.createSegmentLocked(l.next)
}

// Append writes one record and returns its LSN: Begin, then Wait. The
// write is a single syscall, so a crash leaves at most one torn record at
// the tail; with Options.Fsync the record is flushed to stable storage
// before Append returns. Disk failures surface as *IOError (never a
// panic) and poison the log: the failing append reports the IOError
// itself, every later one fails with an error wrapping ErrFailed and the
// original cause. Callers must treat any append error as "this record is
// not durable".
func (l *Log) Append(payload []byte) (LSN, error) {
	lsn, err := l.Begin(payload)
	if err == nil {
		_, err = l.Wait(lsn)
	}
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// Begin reserves the next LSN for payload, frames the record straight
// into the staging buffer, and returns the LSN once the record is staged;
// Wait(lsn) makes it durable. The batched write (and under Options.Fsync
// the shared sync) happens under a wait, so a caller can reserve its LSN
// under its own ordering lock and wait for the flush outside it. While
// MaxBatchBytes are staged, or the staged records must reach the
// current segment before it rotates, Begin waits for them as Wait does,
// leading their flush if none is running. A failed flush returns every
// reservation above the watermark.
func (l *Log) Begin(payload []byte) (LSN, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	crc := crc32.Checksum(payload, castagnoli)
	n := int64(headerSize + len(payload))

	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.f == nil {
			return 0, ErrClosed
		}
		if err := l.poisonLocked(); err != nil {
			return 0, err
		}
		// Rotate when the flushed plus staged bytes would pass
		// SegmentBytes, so the segment layout depends only on the record
		// sequence, never on how records were batched. The staged records
		// must drain into the old segment first: the LSN-to-segment
		// mapping is positional.
		staged := l.size + int64(len(l.buf))
		rotate := staged > 0 && staged+n > l.opts.SegmentBytes
		if len(l.buf) >= MaxBatchBytes || rotate && (l.flushing || l.bufRecords > 0) {
			if err := l.waitLocked(l.next - 1); err != nil {
				return 0, err
			}
			continue // the wait dropped mu; re-evaluate
		}
		if rotate {
			if err := l.rotateLocked(); err != nil {
				l.failed = err
				l.cond.Broadcast()
				return 0, err
			}
		}
		break
	}
	l.markLocked(l.next, l.size+int64(len(l.buf)))
	l.buf = binary.LittleEndian.AppendUint32(l.buf, uint32(len(payload)))
	l.buf = binary.LittleEndian.AppendUint32(l.buf, crc)
	l.buf = append(l.buf, payload...)
	l.bufRecords++
	l.next++
	return l.next - 1, nil
}

// Wait blocks until record lsn, reserved by Begin, is durable, and
// returns the duration of the sync in the flush that made it so (0
// without Options.Fsync). On a flush failure the waiter that led it
// surfaces the *IOError itself and every other waiter gets an error
// wrapping ErrFailed and the cause, matching Append's poison contract.
func (l *Log) Wait(lsn LSN) (fsync time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.waitLocked(lsn); err != nil {
		return 0, err
	}
	return l.lastFsync, nil
}

// WaitDurable blocks until every record accepted before the call is
// durable — the barrier behind duplicate-ack paths, where a retried
// mutation may only be acknowledged once the original it dedups against
// is itself durable, and behind snapshots. A poisoned log refuses even
// when the watermark covers every reserved LSN: a failed flush returns
// its reservations, but a caller may already have applied them.
func (l *Log) WaitDurable() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	if err := l.poisonLocked(); err != nil {
		return err
	}
	return l.waitLocked(l.next - 1)
}

// waitLocked is the log's one durability wait: it returns once the
// watermark covers lsn, leading the flush of the staged batch whenever
// none is running and parking on l.cond otherwise. It fails with the
// wrapped sticky poison, with ErrClosed, or with the *IOError of a flush
// it led. Callers hold l.mu, which is dropped while it flushes or parks;
// lsn must be below l.next, so a record it waits for is staged or in
// flight.
func (l *Log) waitLocked(lsn LSN) error {
	for l.synced < lsn {
		switch {
		case l.failed != nil:
			return l.poisonLocked()
		case l.f == nil:
			return ErrClosed
		case !l.flushing && l.bufRecords > 0:
			if err := l.flushLocked(); err != nil {
				return err
			}
		default:
			l.cond.Wait()
		}
	}
	return nil
}

// poisonLocked returns the error every write or wait on a poisoned log
// fails with, wrapping ErrFailed and the original cause; nil while the
// log is healthy. Callers hold l.mu.
func (l *Log) poisonLocked() error {
	if l.failed == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrFailed, l.failed)
}

// flushLocked writes the staged batch with one Write and, under Fsync,
// one Sync, then advances the durability watermark and wakes every
// waiter. The caller (waitLocked) holds l.mu and has checked that no
// flush is running; the lock is released for the disk I/O and
// reacquired before returning. On failure the returned *IOError is the
// caller's to surface while the sticky poison fails every other waiter
// with ErrFailed, and every reservation above the watermark is
// returned: NextLSN counts only records that are in the log.
func (l *Log) flushLocked() error {
	batch := l.buf
	records := l.bufRecords
	upTo := l.next - 1
	l.buf = l.spare[:0]
	l.spare = nil
	l.bufRecords = 0
	l.flushing = true
	off := l.size
	l.size += int64(len(batch)) // so records staged meanwhile mark true offsets
	f := l.f
	path := l.segs[len(l.segs)-1].path
	l.mu.Unlock()

	var ioErr *IOError
	var syncDur time.Duration
	if _, err := f.Write(batch); err != nil {
		ioErr = &IOError{Op: "write", Path: path, Err: err}
	} else if l.opts.Fsync {
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
		l.size -= int64(len(batch))
		l.next = l.synced + 1
		l.buf = l.buf[:0]
		l.bufRecords = 0
		seg := &l.segs[len(l.segs)-1]
		for len(seg.marks) > 1 && seg.marks[len(seg.marks)-1] >= l.size {
			seg.marks = seg.marks[:len(seg.marks)-1]
		}
		l.cond.Broadcast()
		return ioErr
	}
	l.synced = upTo
	l.lastFsync = syncDur
	l.tailAppendLocked(batch, off)
	l.cond.Broadcast()
	if l.opts.OnFlush != nil {
		l.opts.OnFlush(records)
	}
	return nil
}

// tailAppendLocked appends a flushed batch, which starts at segment
// offset off, to the newest-segment tail, then cuts the tail back to
// its newest tailBytes/2 if it outgrew tailBytes. Callers hold l.mu,
// and the batch is already durable. Flushes are serial and a rotation
// waits for them, so the batch starts at the tail's next LSN and byte.
func (l *Log) tailAppendLocked(batch []byte, off int64) {
	for p := 0; p < len(batch); p += headerSize + int(binary.LittleEndian.Uint32(batch[p:])) {
		l.tailOffs = append(l.tailOffs, off+int64(p))
	}
	end := off + int64(len(batch))
	if end-l.tailOffs[0] <= tailBytes {
		l.tail = append(l.tail, batch...)
		return
	}
	// Keep the longest suffix of records that fits in tailBytes/2; it
	// may start inside the old tail or inside the batch.
	k := sort.Search(len(l.tailOffs), func(i int) bool { return end-l.tailOffs[i] <= tailBytes/2 })
	if k < len(l.tailOffs) {
		if start := l.tailOffs[k]; start >= off {
			l.tail = append(l.tail[:0], batch[start-off:]...)
		} else {
			n := copy(l.tail, l.tail[start-l.tailOffs[0]:])
			l.tail = append(l.tail[:n], batch...)
		}
	} else {
		l.tail = l.tail[:0]
	}
	l.tailFirst += LSN(k)
	l.tailOffs = append(l.tailOffs[:0], l.tailOffs[k:]...)
}

// Close makes the log durable and closes it: staged records are
// flushed through the wait Wait uses, after any flush in flight, the
// newest segment synced, and the file closed. Further appends fail
// with ErrClosed. A dirty close — the log was already poisoned, or the
// final flush, sync or close itself fails — is recorded in the sticky
// poison and returned as an error, so shutdown paths can distinguish
// "closed clean" from "closed with an unsynced tail"; closing an
// already-closed dirty log keeps reporting it. A poisoned log's final
// sync is skipped rather than retried: after a failed fsync the kernel
// may have dropped the dirty pages, and a retry reporting success would
// be a lie.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	dirty := l.poisonLocked()
	if dirty == nil && l.f != nil {
		dirty = l.waitLocked(l.next - 1)
	}
	if l.f == nil { // closed before, or by a concurrent Close while this one waited
		return dirty
	}
	path := l.segs[len(l.segs)-1].path
	if dirty == nil {
		if err := l.f.Sync(); err != nil {
			l.failed = &IOError{Op: "fsync", Path: path, Err: err}
			dirty = l.failed
		}
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

// Replay calls fn for every record with LSN >= from that is durable
// (at or below Synced) when it starts, in order; the payload is valid
// only during fn. It reads the segment files through ReadCommitted's
// reader, never the in-memory tail, so it sees what a restart would: it
// fails with ErrTruncated when from precedes the oldest retained
// segment and with ErrCorrupt when the durable prefix does not verify.
// Each batch is verified whole before fn sees any record of it, and
// every batch reuses one buffer of MaxBatchBytes.
func (l *Log) Replay(from LSN, fn func(lsn LSN, payload []byte) error) error {
	end := l.Synced()
	var batch []byte
	for from = max(from, 1); from <= end; {
		if batch == nil {
			batch = make([]byte, 0, MaxBatchBytes)
		}
		var err error
		if batch, _, err = l.readSegments(from, MaxBatchBytes, batch); err != nil {
			return err
		}
		for p := 0; p < len(batch) && from <= end; from++ {
			q := p + headerSize + int(binary.LittleEndian.Uint32(batch[p:]))
			if err := fn(from, batch[p+headerSize:q:q]); err != nil {
				return err
			}
			p = q
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
	return scanVerified(r, func(frame []byte) error { return fn(frame[headerSize:]) })
}

// scanVerified is ScanSegment handing fn each verified frame whole, header
// and payload in one reused buffer, so the frames it passes concatenate
// to the first valid bytes of r.
func scanVerified(r io.Reader, fn func(frame []byte) error) (valid int64, torn bool, err error) {
	buf := make([]byte, headerSize)
	for {
		buf = buf[:headerSize]
		if _, err := io.ReadFull(r, buf); err != nil {
			if errors.Is(err, io.EOF) {
				return valid, false, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, true, nil
			}
			return valid, false, err
		}
		length := binary.LittleEndian.Uint32(buf)
		if length > MaxRecordBytes {
			return valid, true, nil
		}
		// Grow in bounded chunks so a corrupt length claim cannot force a
		// huge allocation before the short read is noticed.
		for remaining := int(length); remaining > 0; {
			chunk := min(remaining, 64<<10)
			start := len(buf)
			buf = append(buf, make([]byte, chunk)...)
			if _, err := io.ReadFull(r, buf[start:]); err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					return valid, true, nil
				}
				return valid, false, err
			}
			remaining -= chunk
		}
		if crc32.Checksum(buf[headerSize:], castagnoli) != binary.LittleEndian.Uint32(buf[4:]) {
			return valid, true, nil
		}
		if err := fn(buf); err != nil {
			return valid, false, err
		}
		valid += int64(len(buf))
	}
}

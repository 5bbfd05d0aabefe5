// Log shipping: the committed-prefix reader API behind the replication
// stream. A primary serves its durable record prefix as raw framed bytes
// (ReadCommitted), waits on the durability watermark (SyncWaiter), and
// reports the truncation horizon (OldestLSN); a follower bootstraps an
// empty data directory positioned after a shipped snapshot (InitAtFS)
// and appends the shipped frames to its own log, so the two logs are
// byte-identical over the shipped range.

package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// ErrTruncated reports that requested records were removed by snapshot
// truncation (TruncateBefore): the reader is behind the log's retained
// horizon and must restart from a snapshot instead.
var ErrTruncated = errors.New("wal: records truncated")

// errStopScan stops a ScanSegment early once a reader has all it needs.
var errStopScan = errors.New("wal: stop scan")

// Synced returns the durability watermark: every record at or below it is
// on stable storage (the page cache without Options.Fsync). Only records
// at or below the watermark may be shipped to followers — anything above
// it could still be revoked by a failed flush or power loss.
func (l *Log) Synced() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// A SyncWaiter parks one reader on the durability watermark, again and
// again, under one context: the wait behind the replication stream,
// whose handler waits once per commit it ships. It registers its
// wake-up on the context once, so a Wait costs no allocation. Create
// with WatchSynced; Stop releases it.
type SyncWaiter struct {
	l    *Log
	ctx  context.Context
	stop func() bool
}

// WatchSynced returns a SyncWaiter whose waits end when ctx does.
func (l *Log) WatchSynced(ctx context.Context) *SyncWaiter {
	// Taking mu before the broadcast orders it after a waiter's ctx
	// check: the waiter is either parked in Wait or sees ctx ended.
	return &SyncWaiter{l: l, ctx: ctx, stop: context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.mu.Unlock()
		l.cond.Broadcast()
	})}
}

// Wait blocks until the durability watermark passes after, the
// waiter's context ends, or the log closes, and returns the watermark
// at that moment; ErrClosed once the log is closed. A failed (poisoned)
// log never advances its watermark again, so Wait parks on it as on an
// idle log: its committed prefix stays servable, and a reader that has
// all of it holds there until its context ends instead of asking again
// at once.
func (w *SyncWaiter) Wait(after LSN) (LSN, error) {
	l := w.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.f != nil && l.synced <= after && w.ctx.Err() == nil {
		l.cond.Wait()
	}
	if l.f == nil {
		return l.synced, ErrClosed
	}
	return l.synced, nil
}

// Stop releases the waiter's wake-up registration.
func (w *SyncWaiter) Stop() { w.stop() }

// OldestLSN returns the first LSN still present in the retained segments
// — the replication stream's truncation horizon. On a fresh or fully
// truncated log it equals the next LSN to be written.
func (l *Log) OldestLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return l.next
	}
	return l.segs[0].first
}

// ReadCommitted returns framed record bytes for LSNs from..Synced(),
// bounded by maxBytes (at least one record is returned whenever any is
// available, so a single oversized record cannot wedge the stream; 0
// selects MaxBatchBytes). The bytes use the exact on-disk framing,
// so a reader can ScanSegment them, verify each CRC for free, and append
// them verbatim to its own log. count is the number of records returned;
// the record LSNs are from, from+1, ..., from+count-1. The bytes are
// appended to out[:0], so a reader that hands back the slice an earlier
// read returned reuses its buffer.
//
// It returns ErrTruncated when from precedes the oldest retained segment
// (including losing a race with snapshot truncation mid-read — the caller
// must bootstrap from a snapshot instead) and ErrCorrupt if the durable
// prefix itself fails verification. A from beyond the watermark returns
// (nil, 0, nil).
//
// A from inside the newest-segment tail is answered from memory: the
// bytes are copied under the lock and every shipped frame's CRC is
// verified after it. Any other read scans the segment files, starting
// each at its last mark at or below from, so it costs the returned
// bytes plus at most one mark interval, not the whole segment. Either
// way the result depends only on from, maxBytes, the watermark and the
// segment bytes: the tail holds the bytes a flush wrote, and marks are
// positions the log already knows, never a record of earlier reads.
func (l *Log) ReadCommitted(from LSN, maxBytes int, out []byte) ([]byte, int, error) {
	from, maxBytes = readBounds(from, maxBytes)
	l.mu.Lock()
	if from >= l.tailFirst && from <= l.synced {
		out, count := l.copyTailLocked(from, maxBytes, out)
		l.mu.Unlock()
		l.observeRead(true)
		if err := verifyFrames(out, from); err != nil {
			return nil, 0, err
		}
		return out, count, nil
	}
	l.mu.Unlock()
	out, count, err := l.readSegments(from, maxBytes, out)
	if count > 0 {
		l.observeRead(false)
	}
	return out, count, err
}

// readBounds applies ReadCommitted's defaults: from 0 reads from LSN 1,
// and a maxBytes of 0 or less selects MaxBatchBytes.
func readBounds(from LSN, maxBytes int) (LSN, int) {
	if maxBytes <= 0 {
		maxBytes = MaxBatchBytes
	}
	return max(from, 1), maxBytes
}

// observeRead reports where a ReadCommitted was answered from.
func (l *Log) observeRead(fromTail bool) {
	if l.opts.OnRead != nil {
		l.opts.OnRead(fromTail)
	}
}

// copyTailLocked appends records from.. of the newest-segment tail to
// out[:0], bounded by maxBytes but at least one record. The caller holds
// l.mu and has checked tailFirst <= from <= synced, so the tail holds
// from.
func (l *Log) copyTailLocked(from LSN, maxBytes int, out []byte) ([]byte, int) {
	i := int(from - l.tailFirst)
	base := l.tailOffs[0]
	start := l.tailOffs[i] - base
	count := len(l.tailOffs) - i
	stop := int64(len(l.tail))
	if stop-start > int64(maxBytes) {
		// Record i+k ends where record i+k+1 starts; keep the records
		// that end within maxBytes of start.
		count = max(1, sort.Search(count-1, func(k int) bool {
			return l.tailOffs[i+k+1]-base-start > int64(maxBytes)
		}))
		if i+count < len(l.tailOffs) {
			stop = l.tailOffs[i+count] - base
		}
	}
	return append(out[:0], l.tail[start:stop]...), count
}

// verifyFrames checks the CRC of every frame in a tail copy, as
// ScanSegment does for the bytes it reads from disk.
func verifyFrames(frames []byte, first LSN) error {
	for p, lsn := 0, first; p < len(frames); lsn++ {
		n := int(binary.LittleEndian.Uint32(frames[p:]))
		payload := frames[p+headerSize : p+headerSize+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frames[p+4:]) {
			return fmt.Errorf("%w: tail record at lsn %d fails its checksum", ErrCorrupt, lsn)
		}
		p += headerSize + n
	}
	return nil
}

// readSegments is the one reader of the durable prefix in the segment
// files, behind ReadCommitted and Replay: the records from..Synced(),
// framed and bounded by maxBytes as ReadCommitted documents, appended
// to out[:0] as the frames the scan verified. It copies the watermark
// and the segment list under l.mu, refuses a from below the oldest
// retained segment with ErrTruncated, and starts each segment's scan at
// its last mark at or below from.
func (l *Log) readSegments(from LSN, maxBytes int, out []byte) ([]byte, int, error) {
	l.mu.Lock()
	synced := l.synced
	if from > synced {
		l.mu.Unlock()
		return nil, 0, nil
	}
	if len(l.segs) == 0 || from < l.segs[0].first {
		l.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: lsn %d predates the oldest retained segment", ErrTruncated, from)
	}
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	out = out[:0]
	count := 0
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].first <= from {
			continue // every record of this segment is below from
		}
		if seg.first > synced {
			break
		}
		f, err := l.fs.Open(seg.path)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				// Lost a race with TruncateBefore between the segment
				// snapshot above and this open.
				return nil, 0, fmt.Errorf("%w: segment %s removed mid-read", ErrTruncated, filepath.Base(seg.path))
			}
			return nil, 0, err
		}
		k := 0
		if from > seg.first {
			k = int(min((from-seg.first)/markEvery, LSN(len(seg.marks)-1)))
		}
		lsn := seg.first + LSN(k)*markEvery
		section := io.NewSectionReader(f, seg.marks[k], math.MaxInt64-seg.marks[k])
		stopped := false
		_, _, scanErr := scanVerified(bufio.NewReader(section), func(frame []byte) error {
			this := lsn
			lsn++
			if this > synced {
				stopped = true
				return errStopScan
			}
			if this < from {
				return nil
			}
			if count > 0 && len(out)+len(frame) > maxBytes {
				stopped = true
				return errStopScan
			}
			out = append(out, frame...)
			count++
			return nil
		})
		closeErr := f.Close()
		if scanErr != nil && !errors.Is(scanErr, errStopScan) {
			return nil, 0, fmt.Errorf("segment %s: %w", filepath.Base(seg.path), scanErr)
		}
		if closeErr != nil {
			return nil, 0, closeErr
		}
		if stopped || (count > 0 && len(out) >= maxBytes) {
			break
		}
		// Records at or below the watermark are always fully on disk, so
		// a non-final segment that ends short of the next one's first LSN
		// means the durable prefix itself is damaged.
		if i+1 < len(segs) && lsn <= synced && segs[i+1].first != lsn {
			return nil, 0, fmt.Errorf("%w: segment %s ends at lsn %d but %s starts at %d",
				ErrCorrupt, filepath.Base(seg.path), lsn-1,
				filepath.Base(segs[i+1].path), segs[i+1].first)
		}
	}
	if count == 0 {
		// The range was durable when we looked but the files no longer
		// hold it — only truncation removes durable records.
		return nil, 0, fmt.Errorf("%w: lsn %d no longer on disk", ErrTruncated, from)
	}
	return out, count, nil
}

// InitAtFS prepares dir as an empty log positioned so the next append
// gets LSN next — the follower-bootstrap primitive: after installing a
// snapshot covering next-1 (WriteSnapshotFS), InitAtFS makes a later Open
// resume exactly where the snapshot left off instead of restarting at
// LSN 1. It refuses a directory that already holds segments. nil fsys
// selects the real filesystem.
func InitAtFS(fsys FS, dir string, next LSN) error {
	if fsys == nil {
		fsys = OSFS()
	}
	if next == 0 {
		return fmt.Errorf("wal: init at lsn 0")
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return err
	}
	if len(segs) > 0 {
		return fmt.Errorf("wal: init: %s already holds %d segment(s)", dir, len(segs))
	}
	path := filepath.Join(dir, segmentFile.name(next))
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return &IOError{Op: "create", Path: path, Err: err}
	}
	if err := f.Close(); err != nil {
		return &IOError{Op: "close", Path: path, Err: err}
	}
	if err := syncDir(fsys, dir); err != nil {
		return &IOError{Op: "dirsync", Path: dir, Err: err}
	}
	return nil
}

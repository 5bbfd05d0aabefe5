package wal

import "context"

// WaitSynced is one SyncWaiter wait under ctx: the one-shot wait the
// tests drive.
func (l *Log) WaitSynced(ctx context.Context, after LSN) (LSN, error) {
	w := l.WatchSynced(ctx)
	defer w.Stop()
	return w.Wait(after)
}

// TailBytes is the newest-segment tail's bound, for external tests.
const TailBytes = tailBytes

// FileRead is ReadCommitted's file path over the log's current segments,
// whether or not the tail holds from: the read a tail answer must equal.
func (l *Log) FileRead(from LSN, maxBytes int) ([]byte, int, error) {
	if from == 0 {
		from = 1
	}
	if maxBytes <= 0 {
		maxBytes = MaxBatchBytes
	}
	l.mu.Lock()
	synced := l.synced
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	if from > synced {
		return nil, 0, nil
	}
	return l.readSegments(segs, from, maxBytes, synced)
}

// TailState reports the newest-segment tail: the LSN after its last
// record (first + records), its first LSN, a copy of its frames, and
// the newest segment's path and the byte offset the frames start at.
func (l *Log) TailState() (end, first LSN, frames []byte, path string, off int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.tailOffs) > 0 {
		off = l.tailOffs[0]
	}
	return l.tailFirst + LSN(len(l.tailOffs)), l.tailFirst, append([]byte(nil), l.tail...),
		l.segs[len(l.segs)-1].path, off
}

// NoSyncFS makes every fsync a no-op (see noSyncFS).
type NoSyncFS = noSyncFS

package wal

import (
	"os"
	"path/filepath"
)

// Snapshots are whole-state JSON documents named snapshot-<lsn>.json,
// where <lsn> (16 hex digits) is the last WAL record the state includes:
// recovery loads the newest snapshot and replays records lsn+1... on top.
// A snapshot is installed whole (Install), so a crash mid-write leaves
// the previous snapshot intact; once the rename lands, older snapshots
// (and, via Log.TruncateBefore, fully-covered WAL segments) are garbage
// and are removed.

// WriteSnapshotFS installs payload as the snapshot covering records
// 1..lsn (Install: temp file, fsync, rename, directory fsync) and removes
// older snapshot files. Both syncs matter: a snapshot whose data or
// directory entry could evaporate on power loss would be worse than
// none, because installing it deletes its predecessor (and lets the
// caller truncate the WAL the predecessor needed). Failures surface as
// Install's *IOError; on any failure before the rename lands the
// previous snapshot is untouched.
func WriteSnapshotFS(fsys FS, dir string, lsn LSN, payload []byte) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := Install(fsys, dir, snapshotFile.name(lsn), payload); err != nil {
		return err
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if old, ok := snapshotFile.parse(e.Name()); ok && old < lsn {
			// Best-effort: a leftover older snapshot is shadowed by the
			// newer one either way.
			fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// LatestSnapshotFS loads the newest snapshot in dir. found is false when
// the directory holds no snapshot (or does not exist yet).
func LatestSnapshotFS(fsys FS, dir string) (lsn LSN, payload []byte, found bool, err error) {
	entries, err := fsys.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, err
	}
	best := LSN(0)
	bestName := ""
	for _, e := range entries {
		if l, ok := snapshotFile.parse(e.Name()); ok && (bestName == "" || l > best) {
			best, bestName = l, e.Name()
		}
	}
	if bestName == "" {
		return 0, nil, false, nil
	}
	payload, err = fsys.ReadFile(filepath.Join(dir, bestName))
	if err != nil {
		return 0, nil, false, err
	}
	return best, payload, true, nil
}

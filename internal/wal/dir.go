package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The data directory. A durable juryd keeps four kinds of file in one
// flat directory, and this package owns every write to it:
//
//	wal-<lsn>.log       log segments (wal.go)
//	snapshot-<lsn>.json snapshots (snapshot.go)
//	fence.json          the fence marker of a deposed primary
//	follower-id         a follower's replication identity
//
// Segments and snapshots are log state (HasState); the other two are
// node metadata, written whole by Install, and a wiped directory starts
// without them.

// An lsnFile is a kind of log-state file, named by an LSN written as 16
// hex digits between a fixed prefix and suffix.
type lsnFile struct{ prefix, suffix string }

var (
	segmentFile  = lsnFile{"wal-", ".log"}       // the LSN of its first record
	snapshotFile = lsnFile{"snapshot-", ".json"} // the last LSN it covers
)

// name renders the file name of this kind for lsn.
func (k lsnFile) name(lsn LSN) string {
	return fmt.Sprintf("%s%016x%s", k.prefix, uint64(lsn), k.suffix)
}

// parse extracts the LSN from a file name of this kind.
func (k lsnFile) parse(name string) (LSN, bool) {
	hex, ok := strings.CutPrefix(name, k.prefix)
	if !ok {
		return 0, false
	}
	if hex, ok = strings.CutSuffix(hex, k.suffix); !ok || len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	return LSN(n), err == nil
}

// Install atomically replaces dir/name with data: it writes a temp file,
// fsyncs and closes it, renames it into place and fsyncs dir. A crash
// leaves the old contents or the new, never a mix, and a nil return
// means both the contents and the directory entry are on stable
// storage. Failures surface as *IOError naming the failed step (create,
// write, fsync, close, rename, dirsync); before the rename lands,
// dir/name is untouched and the temp file is removed.
func Install(fsys FS, dir, name string, data []byte) error {
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return &IOError{Op: "create", Path: tmp, Err: err}
	}
	fail := func(op, target string, err error) error {
		fsys.Remove(tmp)
		return &IOError{Op: op, Path: target, Err: err}
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fail("write", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fail("fsync", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fail("close", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fail("rename", path, err)
	}
	if err := syncDir(fsys, dir); err != nil {
		return &IOError{Op: "dirsync", Path: dir, Err: err}
	}
	return nil
}

// HasState reports whether dir holds log state — a segment or a
// snapshot — so that a node booting on it must recover it rather than
// bootstrap from a primary. A missing dir holds none, and neither does
// one holding only fence.json or follower-id. It only lists dir: it
// must not create files, or a later bootstrap into the "empty" dir
// would refuse. nil fsys selects the real filesystem.
func HasState(fsys FS, dir string) (bool, error) {
	if fsys == nil {
		fsys = OSFS()
	}
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		_, seg := segmentFile.parse(e.Name())
		_, snap := snapshotFile.parse(e.Name())
		if seg || snap {
			return true, nil
		}
	}
	return false, nil
}

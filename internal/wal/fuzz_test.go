package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"
)

// encodeRecord frames one payload the way Append does.
func encodeRecord(payload []byte) []byte {
	rec := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	copy(rec[headerSize:], payload)
	return rec
}

// FuzzScanSegment is the WAL decoder's safety net: arbitrary bytes must
// never panic, and whatever prefix the scanner accepts must be a
// self-consistent log — rescanning exactly that prefix yields the same
// records with no torn tail. The frames scanVerified hands over, which
// the segment reader ships as they are, concatenate to that prefix.
func FuzzScanSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRecord(nil))
	f.Add(encodeRecord([]byte("hello")))
	f.Add(append(encodeRecord([]byte("a")), encodeRecord([]byte("bb"))...))
	f.Add(encodeRecord([]byte("torn"))[:9])           // mid-payload tear
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // absurd length claim
	corrupt := encodeRecord([]byte("crc-mismatch"))
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)
	f.Add(append(encodeRecord([]byte("good")), 0x13, 0x37))
	// Epoch records as journaled at promotion time: alone, ahead of a
	// mutation, torn mid-payload, and with a corrupted epoch number — the
	// scanner must treat them like any other payload (accept whole,
	// truncate torn, reject corrupt) with no special-casing.
	epoch := encodeRecord([]byte(`{"t":"epoch","epoch":2,"start_lsn":7}`))
	f.Add(epoch)
	f.Add(append(append([]byte(nil), epoch...), encodeRecord([]byte(`{"t":"vote","worker":"ann"}`))...))
	f.Add(epoch[:len(epoch)-5])
	epochCorrupt := append([]byte(nil), epoch...)
	epochCorrupt[headerSize+len(`{"t":"epoch","epoch":`)] ^= 0x01
	f.Add(epochCorrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		var first [][]byte
		valid, torn, err := ScanSegment(bytes.NewReader(data), func(p []byte) error {
			first = append(first, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("ScanSegment on in-memory bytes returned err %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d outside [0, %d]", valid, len(data))
		}
		if !torn && valid != int64(len(data)) {
			t.Fatalf("clean scan stopped at %d of %d bytes", valid, len(data))
		}
		var second [][]byte
		valid2, torn2, err := ScanSegment(bytes.NewReader(data[:valid]), func(p []byte) error {
			second = append(second, append([]byte(nil), p...))
			return nil
		})
		if err != nil || torn2 || valid2 != valid {
			t.Fatalf("rescan of valid prefix = (%d, torn %v, err %v), want (%d, false, nil)",
				valid2, torn2, err, valid)
		}
		if len(first) != len(second) {
			t.Fatalf("rescan found %d records, first scan %d", len(second), len(first))
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("record %d differs between scans", i)
			}
		}
		var frames []byte
		valid3, torn3, err := scanVerified(bytes.NewReader(data), func(frame []byte) error {
			frames = append(frames, frame...)
			return nil
		})
		if err != nil || torn3 != torn || valid3 != valid || !bytes.Equal(frames, data[:valid]) {
			t.Fatalf("scanVerified = (%d, torn %v, err %v) with %d frame bytes, want (%d, %v, nil) and data[:%d]",
				valid3, torn3, err, len(frames), valid, torn, valid)
		}
	})
}

// FuzzAppendReplayRoundTrip drives real files: arbitrary payload chunks
// appended to a log must replay back byte-identically, across a reopen.
func FuzzAppendReplayRoundTrip(f *testing.F) {
	f.Add([]byte("single"), uint8(0))
	f.Add([]byte("splitintochunks"), uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{SegmentBytes: 32})
		if err != nil {
			t.Fatal(err)
		}
		size := int(chunk)%8 + 1
		var want [][]byte
		for i := 0; i < len(data); i += size {
			end := min(i+size, len(data))
			payload := data[i:end]
			if _, err := l.Append(payload); err != nil {
				t.Fatalf("Append: %v", err)
			}
			want = append(want, append([]byte(nil), payload...))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, info, err := Open(dir, Options{SegmentBytes: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if info.TornBytes != 0 {
			t.Fatalf("clean log reported %d torn bytes", info.TornBytes)
		}
		var got [][]byte
		if err := l2.Replay(1, func(lsn LSN, p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("replay mismatch: %d records in, %d out", len(want), len(got))
		}
	})
}

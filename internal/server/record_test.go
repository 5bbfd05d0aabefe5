package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/online"
	"repro/internal/voting"
)

// TestRecordEncodingStable freezes the WAL record format: one Record of
// every RecordType must marshal to exactly the bytes below. A journal
// written by an older binary has to replay unchanged, and followers decode
// what primaries encode, so any drift here is a wire-format break.
func TestRecordEncodingStable(t *testing.T) {
	q := 0.8
	cases := []struct {
		rec  Record
		want string
	}{
		{Record{T: RecRegister, Specs: []WorkerSpec{{ID: "a", Quality: 0.8, Cost: 3, PriorStrength: 4}, {ID: "b", Quality: 0.6, Cost: 1}}, Strength: 8},
			`{"t":"register","specs":[{"id":"a","quality":0.8,"cost":3,"prior_strength":4},{"id":"b","quality":0.6,"cost":1}],"strength":8}`},
		{Record{T: RecUpdate, Specs: []WorkerSpec{{ID: "a", Quality: 0.7, Cost: 2}}, Strength: 8},
			`{"t":"update","specs":[{"id":"a","quality":0.7,"cost":2}],"strength":8}`},
		{Record{T: RecRemove, WorkerID: "a"},
			`{"t":"remove","worker_id":"a"}`},
		{Record{T: RecIngest, Key: "k1", Events: []VoteEvent{{WorkerID: "a", Correct: true}, {WorkerID: "b"}}},
			`{"t":"ingest","key":"k1","events":[{"worker_id":"a","correct":true},{"worker_id":"b","correct":false}]}`},
		{Record{T: RecSessionOpen, Session: &SessionRecord{ID: "s1", Next: 1,
			Config: &online.Config{Alpha: 0.5, Confidence: 0.95, Budget: 10, MaxVotes: 5}}},
			`{"t":"session-open","session":{"id":"s1","next":1,"config":{"Alpha":0.5,"Confidence":0.95,"Budget":10,"MaxVotes":5}}}`},
		{Record{T: RecSessionVote, Session: &SessionRecord{ID: "s1", Quality: 0.8, Cost: 3, Vote: 1}},
			`{"t":"session-vote","session":{"id":"s1","quality":0.8,"cost":3,"vote":1}}`},
		{Record{T: RecSessionBudget, Session: &SessionRecord{ID: "s1"}},
			`{"t":"session-budget","session":{"id":"s1"}}`},
		{Record{T: RecSessionClose, Session: &SessionRecord{ID: "s1"}},
			`{"t":"session-close","session":{"id":"s1"}}`},
		{Record{T: RecSessionReap, Session: &SessionRecord{Reaped: []string{"s2", "s10"}}},
			`{"t":"session-reap","session":{"reaped":["s2","s10"]}}`},
		{Record{T: RecMultiCreate, Multi: &MultiRecord{Pool: "colors", Labels: 3, Strength: 8, Specs: []MultiWorkerSpec{
			{ID: "m0", Quality: &q, Cost: 2},
			{ID: "m1", Confusion: [][]float64{{0.9, 0.05, 0.05}, {0.1, 0.8, 0.1}, {0.2, 0.2, 0.6}}, Cost: 3, PriorStrength: 2},
		}}},
			`{"t":"multi-create","multi":{"pool":"colors","labels":3,"specs":[{"id":"m0","quality":0.8,"cost":2},{"id":"m1","confusion":[[0.9,0.05,0.05],[0.1,0.8,0.1],[0.2,0.2,0.6]],"cost":3,"prior_strength":2}],"strength":8}}`},
		{Record{T: RecMultiRegister, Multi: &MultiRecord{Pool: "colors", Strength: 8, Specs: []MultiWorkerSpec{{ID: "m2", Quality: &q, Cost: 1}}}},
			`{"t":"multi-register","multi":{"pool":"colors","specs":[{"id":"m2","quality":0.8,"cost":1}],"strength":8}}`},
		{Record{T: RecMultiIngest, Key: "k2", Multi: &MultiRecord{Pool: "colors", Events: []MultiVoteEvent{{WorkerID: "m0", Truth: 0, Vote: 2}}}},
			`{"t":"multi-ingest","key":"k2","multi":{"pool":"colors","events":[{"worker_id":"m0","truth":0,"vote":2}]}}`},
		{Record{T: RecMultiDrop, Multi: &MultiRecord{Pool: "colors"}},
			`{"t":"multi-drop","multi":{"pool":"colors"}}`},
		{Record{T: RecEpoch, Epoch: 2, StartLSN: 17},
			`{"t":"epoch","epoch":2,"start_lsn":17}`},
	}
	seen := map[RecordType]bool{}
	for _, c := range cases {
		got, err := json.Marshal(&c.rec)
		if err != nil {
			t.Fatalf("%s: %v", c.rec.T, err)
		}
		if string(got) != c.want {
			t.Errorf("%s record encodes as\n%s\nwant\n%s", c.rec.T, got, c.want)
		}
		var back Record
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("%s: decode: %v", c.rec.T, err)
		}
		if again, _ := json.Marshal(&back); string(again) != c.want {
			t.Errorf("%s record does not round-trip: %s", c.rec.T, again)
		}
		seen[c.rec.T] = true
	}
	if len(seen) != 14 {
		t.Fatalf("covered %d record types, want all 14", len(seen))
	}
}

// TestStateDocumentStable freezes the snapshot document (and with it
// state_sha256): a fixed script touching every store and every record
// type must leave a state whose canonical dump hashes to the golden
// value, so snapshots written by an older binary load unchanged and
// cross-version replicas agree on convergence.
func TestStateDocumentStable(t *testing.T) {
	s := New(NewConfig())
	s.sessions.cap = 2
	ctx := context.Background()
	q := 0.7
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.registry.Register(ctx, []WorkerSpec{{ID: "a", Quality: 0.8, Cost: 3}, {ID: "b", Quality: 0.6, Cost: 1, PriorStrength: 2}, {ID: "c", Quality: 0.7, Cost: 2}}, 0)
	must(err)
	_, err = s.registry.Update(ctx, WorkerSpec{ID: "c", Quality: 0.75, Cost: 2}, 0)
	must(err)
	must(s.registry.Remove(ctx, "c"))
	_, _, _, err = s.registry.IngestKeyed(ctx, []VoteEvent{{WorkerID: "a", Correct: true}, {WorkerID: "b"}}, "k1")
	must(err)
	_, _, err = s.registry.Ingest(ctx, []VoteEvent{{WorkerID: "b", Correct: true}})
	must(err)
	s1, err := s.sessions.Open(ctx, online.Config{Alpha: 0.5, Confidence: 0.99, Budget: 4})
	must(err)
	_, err = s.sessions.Observe(ctx, s1.ID, 0.8, 3, voting.Yes)
	must(err)
	_, err = s.sessions.MarkBudgetExhausted(ctx, s1.ID)
	must(err)
	s2, err := s.sessions.Open(ctx, online.Config{Alpha: 0.5, Confidence: 0.9})
	must(err)
	_, err = s.sessions.Open(ctx, online.Config{Alpha: 0.4, Confidence: 0.95}) // reaps s1
	must(err)
	must(s.sessions.Close(ctx, s2.ID))
	_, err = s.multi.CreatePool(ctx, "colors", 3, []MultiWorkerSpec{{ID: "m0", Quality: &q, Cost: 2}}, 0)
	must(err)
	_, _, err = s.multi.Register(ctx, "colors", []MultiWorkerSpec{{ID: "m1", Confusion: [][]float64{{0.9, 0.05, 0.05}, {0.1, 0.8, 0.1}, {0.2, 0.2, 0.6}}, Cost: 1}}, 0)
	must(err)
	_, _, _, err = s.multi.IngestKeyed(ctx, "colors", []MultiVoteEvent{{WorkerID: "m0", Truth: 1, Vote: 2}}, "k2")
	must(err)
	_, _, err = s.multi.Ingest(ctx, "colors", []MultiVoteEvent{{WorkerID: "m1", Truth: 0, Vote: 0}})
	must(err)
	_, err = s.multi.CreatePool(ctx, "spare", 2, nil, 0)
	must(err)
	must(s.multi.DropPool(ctx, "spare"))

	doc, err := s.DebugState()
	must(err)
	const want = "d7bbda9377a0274f040d51516d2d34250edd2b9c52aaae3fd978d80ccf7a94b6"
	if got := fmt.Sprintf("%x", sha256.Sum256(doc)); got != want {
		t.Fatalf("state document hashes to %s, want %s:\n%s", got, want, doc)
	}
}

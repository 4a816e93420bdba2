package spap

import (
	"bytes"
	"context"
	"testing"

	"sparseap/internal/checkpoint"
)

// FuzzSpAPResume feeds mutated phase-machine records to a resume through
// an in-memory store. Seeds are real records from mid-BaseAP, mid-batch
// and mid-fallback checkpoints. A resume must never panic: it either
// refuses the record with an error or runs to completion. Any payload
// that decodes must re-encode to the same bytes.
func FuzzSpAPResume(f *testing.F) {
	ctx := context.Background()
	cfg := cfgWithCapacity(100)
	chain, chainIn := chainApp(f, 512)
	storm, stormIn := buildStorm(f, 2, 16, 256)
	hopeless := Guard{MinReports: 64}
	run := func(guarded bool, ck *checkpoint.Runner) (*Result, error) {
		if guarded {
			return RunGuardedCheckpointed(ctx, storm, stormIn, cfg, hopeless, Options{}, ck)
		}
		return RunBaseAPSpAPCheckpointed(ctx, chain, chainIn, cfg, Options{}, ck)
	}

	seed := func(guarded bool, pick func(*ckState) bool) {
		states, payloads := savedStates(f, func(ck *checkpoint.Runner) error {
			_, err := run(guarded, ck)
			return err
		})
		for i, st := range states {
			if pick(st) {
				f.Add(guarded, payloads[i])
				return
			}
		}
		f.Fatal("no checkpoint of the wanted phase to seed from")
	}
	seed(false, func(st *ckState) bool { return st.phase == ckPhaseBase && st.pos > 0 })
	seed(false, func(st *ckState) bool { return st.phase == ckPhaseCold && st.inBatch })
	seed(true, func(st *ckState) bool { return st.phase == ckPhaseFallback && st.pos > 0 })

	f.Fuzz(func(t *testing.T, guarded bool, payload []byte) {
		var st ckState
		if st.decode(payload) == nil {
			var e checkpoint.Enc
			st.encode(&e)
			if !bytes.Equal(e.Bytes(), payload) {
				t.Fatalf("decoded record re-encodes to %d different bytes (payload %d)", len(e.Bytes()), len(payload))
			}
		}
		store := &memStore{}
		if err := store.Save("spap", spapStateVersion, payload); err != nil {
			t.Fatal(err)
		}
		res, err := run(guarded, &checkpoint.Runner{Store: store, Name: "spap", Every: 64})
		if err != nil {
			return
		}
		if res == nil || res.Resume == nil || !res.Resume.Resumed {
			t.Fatalf("resume returned no error but did not resume: %+v", res)
		}
		var last ckState
		if err := last.decode(store.payload); err != nil || last.phase != ckPhaseDone {
			t.Fatalf("resume returned no error but the last record is phase %d (%v)", last.phase, err)
		}
	})
}

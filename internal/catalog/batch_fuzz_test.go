package catalog

// Fuzzing for the data WAL frame codec: decodeData must never panic or
// over-allocate on arbitrary bytes (the count prefix is attacker-
// controlled on a corrupt log), and whatever it accepts must survive a
// canonical re-encode/decode cycle with every key and record intact —
// replay and follower apply both trust this codec. Seeds cover insert
// batches, lone deletes, and modify pairs (a delete and an insert at one
// transaction time).

import (
	"testing"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
)

// fuzzRecord builds a data record for element es at transaction time tt.
func fuzzRecord(key string, op relation.Op, es, tt, vt int64) dataRecord {
	return dataRecord{key: key, rec: relation.LogRecord{
		Op: op,
		TT: chronon.Chronon(tt),
		Elem: &element.Element{
			ES: surrogate.Surrogate(es), OS: 1,
			VT:      element.EventAt(chronon.Chronon(vt)),
			TTStart: chronon.Chronon(tt),
		},
	}}
}

func fuzzDataSeed(f *testing.F, recs ...dataRecord) []byte {
	f.Helper()
	b, err := encodeData(recs)
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	return b
}

func FuzzDecodeBatchFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd count, no bytes behind it
	f.Add(fuzzDataSeed(f, fuzzRecord("", relation.OpInsert, 1, 10, 5)))
	f.Add(fuzzDataSeed(f,
		fuzzRecord("k-1", relation.OpInsert, 1, 10, 5),
		fuzzRecord("k-2", relation.OpInsert, 2, 20, 9),
		fuzzRecord("k-3", relation.OpInsert, 3, 30, 12)))
	f.Add(fuzzDataSeed(f, fuzzRecord("del-1", relation.OpDelete, 1, 40, 5)))
	f.Add(fuzzDataSeed(f, // a keyed modify: its delete, then its insert
		fuzzRecord("", relation.OpDelete, 1, 50, 5),
		fuzzRecord("mod-1", relation.OpInsert, 4, 50, 7)))
	f.Add(fuzzDataSeed(f, // insert, modify, delete in one frame
		fuzzRecord("a", relation.OpInsert, 5, 60, 1),
		fuzzRecord("", relation.OpDelete, 2, 70, 9),
		fuzzRecord("b", relation.OpInsert, 6, 70, 8),
		fuzzRecord("c", relation.OpDelete, 3, 80, 12)))
	corrupt := fuzzDataSeed(f, fuzzRecord("k", relation.OpInsert, 1, 10, 7))
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	f.Add(append(fuzzDataSeed(f), 0x00)) // trailing garbage

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := decodeData(b)
		if err != nil {
			return
		}
		for i, d := range recs {
			if len(d.key) > maxIdemKeyLen {
				t.Fatalf("record %d: accepted %d-byte key (max %d)", i, len(d.key), maxIdemKeyLen)
			}
			if d.rec.Elem == nil {
				t.Fatalf("record %d: accepted record without element", i)
			}
			if d.rec.Op != relation.OpInsert && d.rec.Op != relation.OpDelete {
				t.Fatalf("record %d: accepted op %d", i, d.rec.Op)
			}
		}
		// Canonical-form idempotence: re-encoding what was accepted must
		// decode back to the same keys and record identities. (Byte-level
		// equality is not required — event stamps carry a redundant end
		// field the decoder normalizes away.)
		out, err := encodeData(recs)
		if err != nil {
			return // accepted frame can exceed the frame bound only via absurd inputs
		}
		again, err := decodeData(out)
		if err != nil {
			t.Fatalf("canonical re-encode rejected: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-decode count %d, want %d", len(again), len(recs))
		}
		for i := range again {
			if again[i].key != recs[i].key {
				t.Fatalf("record %d key %q -> %q", i, recs[i].key, again[i].key)
			}
			got, want := again[i].rec, recs[i].rec
			if got.Op != want.Op || got.TT != want.TT || got.Elem.ES != want.Elem.ES {
				t.Fatalf("record %d drifted: %+v -> %+v", i, want, got)
			}
		}
	})
}

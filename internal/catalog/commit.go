package catalog

// The commit path: every data write — single insert, delete, modify, or
// a batch of them — runs through Entry.commit and journals ONE walData
// frame, one group-commit entry, one Merkle leaf, and one published epoch
// (DESIGN §6, §14).
//
// Under a single exclusive-lock acquisition commit stages every mutation
// (dedup lookup, validation, guard checks, and transaction stamping
// against the relation as of the batch's start), journals the staged
// backlog records with their idempotency keys, then applies them —
// commit, tracker, dedup window, physical store — and publishes. The
// durability wait happens outside the lock, so concurrent writers on
// other relations share the group fsync.
//
// Partial failure is per-mutation: a guard rejection or a key-reuse
// conflict marks that index rejected and the rest proceed. With atomic
// set, the first rejection aborts the whole batch before anything is
// journaled. Either way the frame carries only accepted records, and the
// CRC admits or drops it whole, so replay (boot recovery and follower
// apply share the decoder) can never see a prefix of a batch.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/backlog"
	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/relation"
	"repro/internal/surrogate"
	"repro/internal/wal"
)

// ErrBatchRejected types an all-or-nothing batch aborted by one
// element's rejection; the error message names the offending index.
var ErrBatchRejected = errors.New("catalog: batch rejected")

// BatchItemStatus is one element's outcome inside a batch.
type BatchItemStatus uint8

const (
	// BatchStored: the element was journaled and applied by this call.
	BatchStored BatchItemStatus = iota
	// BatchDeduped: the element's idempotency key was already in the
	// window; the original element is returned, nothing new was logged.
	BatchDeduped
	// BatchRejected: a guard, validation, or key-reuse error refused the
	// element; Err carries the cause.
	BatchRejected
)

func (s BatchItemStatus) String() string {
	switch s {
	case BatchStored:
		return "stored"
	case BatchDeduped:
		return "deduped"
	case BatchRejected:
		return "rejected"
	}
	return "unknown"
}

// BatchItemResult is the per-index report of InsertBatch.
type BatchItemResult struct {
	Status BatchItemStatus
	Err    string // rejection cause, empty otherwise
	Elem   *element.Element
	cause  error // the rejection as an error, for single-operation callers
}

// BatchResult reports a whole batch: one entry per input index, the
// outcome tallies, and the epoch the single publish produced.
type BatchResult struct {
	Items    []BatchItemResult
	Stored   int
	Deduped  int
	Rejected int
	Epoch    uint64
}

// IngestStats reports the entry's lifetime batched-ingest counters.
type IngestStats struct {
	Batches  int64
	Elements int64
}

// IngestStats snapshots the batched-ingest counters.
func (e *Entry) IngestStats() IngestStats {
	return IngestStats{Batches: e.ingBatches.Load(), Elements: e.ingElems.Load()}
}

// mutation is one data write with an optional idempotency key. An insert
// stores ins; a delete closes es; a modify closes es and stores its
// replacement with ins.VT and ins.Varying (the other fields carry over).
type mutation struct {
	op  opKind
	key string
	es  surrogate.Surrogate
	ins relation.Insertion
}

// InsertKeyed stores a new element as one transaction. A non-empty
// idempotency key makes it retry-safe: a key the relation's dedup window
// remembers returns the originally stored element with no new WAL record
// and no new event. The context aborts before any work when the caller
// has already given up.
func (e *Entry) InsertKeyed(ctx context.Context, ins relation.Insertion, key string) (*element.Element, error) {
	return e.commitOne(ctx, mutation{op: opInsert, key: key, ins: ins})
}

// DeleteKeyed logically removes an element. A remembered key means the
// delete already happened; the retry succeeds without a second tt⊣
// update (which would fail as already-deleted).
func (e *Entry) DeleteKeyed(ctx context.Context, es surrogate.Surrogate, key string) error {
	_, err := e.commitOne(ctx, mutation{op: opDelete, key: key, es: es})
	return err
}

// ModifyKeyed replaces an element's valid time and varying values: a
// logical delete plus an insert at one transaction time, journaled in one
// frame so recovery applies both or neither. A remembered key returns the
// replacement the original transaction produced.
func (e *Entry) ModifyKeyed(ctx context.Context, es surrogate.Surrogate, vt element.Timestamp, varying []element.Value, key string) (*element.Element, error) {
	return e.commitOne(ctx, mutation{op: opModify, key: key, es: es,
		ins: relation.Insertion{VT: vt, Varying: varying}})
}

// commitOne commits a batch of one and returns its element, or its
// rejection unwrapped so callers see the guard's or the relation's error.
func (e *Entry) commitOne(ctx context.Context, m mutation) (*element.Element, error) {
	res, err := e.commit(ctx, []mutation{m}, false)
	if err != nil {
		return nil, err
	}
	it := res.Items[0]
	return it.Elem, it.cause
}

// InsertBatch stores up to len(ins) new elements as one journaled unit:
// one WAL frame, one epoch. keys, when non-empty, must parallel ins —
// one idempotency key per element, so a replayed batch dedups exactly
// like replayed single inserts. With atomic set, any rejection aborts
// the whole batch (ErrBatchRejected) before anything is journaled;
// otherwise rejected indexes are reported and the rest commit.
func (e *Entry) InsertBatch(ctx context.Context, ins []relation.Insertion, keys []string, atomic bool) (BatchResult, error) {
	if len(keys) != 0 && len(keys) != len(ins) {
		return BatchResult{}, fmt.Errorf("catalog: batch carries %d keys for %d elements", len(keys), len(ins))
	}
	muts := make([]mutation, len(ins))
	for i := range ins {
		muts[i] = mutation{op: opInsert, ins: ins[i]}
		if len(keys) > 0 {
			muts[i].key = keys[i]
		}
	}
	res, err := e.commit(ctx, muts, atomic)
	if err == nil && res.Stored > 0 {
		e.ingBatches.Add(1)
		e.ingElems.Add(int64(res.Stored))
	}
	return res, err
}

// staged is one accepted mutation between staging and apply: old is the
// element it closes at tt (deletes and modifies), el the one it stores
// (inserts and modifies).
type staged struct {
	idx     int
	old, el *element.Element
	tt      chronon.Chronon
}

// commit is the one write path. See the file comment for the protocol.
func (e *Entry) commit(ctx context.Context, muts []mutation, atomic bool) (BatchResult, error) {
	if err := e.writable(); err != nil {
		return BatchResult{}, err
	}
	for i, m := range muts {
		if len(m.key) > maxIdemKeyLen {
			return BatchResult{}, fmt.Errorf("catalog: item %d: idempotency key exceeds %d bytes", i, maxIdemKeyLen)
		}
	}
	if err := ctx.Err(); err != nil {
		return BatchResult{}, err
	}
	res := BatchResult{Items: make([]BatchItemResult, len(muts))}
	var lsn uint64
	err := e.locked.Exclusive(func(r *relation.Relation) error {
		acc := make([]staged, 0, len(muts))
		// Within a batch, the window only learns keys at apply time and the
		// relation only sees closes at commit, so claimed keys and closed
		// elements are tracked here; without them a repeated key would mint
		// two events and a repeated close would apply twice.
		var keys map[string]bool
		var closing map[surrogate.Surrogate]bool
		if len(muts) > 1 {
			keys = make(map[string]bool)
			closing = make(map[surrogate.Surrogate]bool)
		}
		reject := func(i int, cause error) error {
			if atomic {
				return fmt.Errorf("%w: item %d: %w", ErrBatchRejected, i, cause)
			}
			res.Items[i] = BatchItemResult{Status: BatchRejected, Err: cause.Error(), cause: cause}
			return nil
		}
		for i, m := range muts {
			if m.key != "" {
				if hit, ok := e.dedup.lookup(m.key); ok {
					if hit.op != m.op {
						if err := reject(i, fmt.Errorf("%w: %q first used for %s", ErrIdemReuse, m.key, hit.op)); err != nil {
							return err
						}
						continue
					}
					res.Items[i] = BatchItemResult{Status: BatchDeduped, Elem: hit.elem}
					continue
				}
				if keys[m.key] {
					if err := reject(i, fmt.Errorf("%w: %q repeated within the batch", ErrIdemReuse, m.key)); err != nil {
						return err
					}
					continue
				}
				if keys != nil {
					keys[m.key] = true
				}
			}
			s := staged{idx: i}
			var err error
			switch m.op {
			case opInsert:
				s.el, err = r.StageInsert(m.ins)
			case opDelete:
				s.old, s.tt, err = r.StageDelete(m.es)
			case opModify:
				s.old, s.el, s.tt, err = r.StageModify(m.es, m.ins.VT, m.ins.Varying)
			}
			if err == nil && s.old != nil && closing != nil {
				if closing[m.es] {
					err = fmt.Errorf("catalog: item %d closes %v again: %w", i, m.es, relation.ErrAlreadyDeleted)
				}
				closing[m.es] = true
			}
			if err != nil {
				if err := reject(i, err); err != nil {
					return err
				}
				continue
			}
			acc = append(acc, s)
		}
		if len(acc) == 0 {
			// Nothing accepted: no frame, no epoch bump. Deduped hits are
			// already answered by their original acknowledgments.
			res.Epoch = e.Epoch()
			return nil
		}
		if e.wal != nil {
			payload, err := encodeData(dataRecords(muts, acc))
			if err != nil {
				return err
			}
			if lsn, err = e.journal(walData, payload); err != nil {
				return err
			}
		}
		for _, s := range acc {
			m := muts[s.idx]
			if s.old != nil {
				// The close lands on a clone (copy-on-close); swap it into the
				// physical store so the live engine sees the finalized tt⊣
				// while pinned read views keep the open original.
				e.engine.Store().Replace(s.old, r.CommitDelete(s.old, s.tt))
			}
			if s.el != nil {
				r.CommitInsert(s.el)
				e.tracker.Observe(s.el)
				if serr := e.engine.Store().Insert(s.el); serr != nil {
					// An ordering promise broken despite enforcement (an
					// intra-batch violation the pre-batch guards could not
					// see, say): degrade to the general organization rather
					// than lose a journaled element.
					e.decls2general(r, serr)
				}
			}
			if m.key != "" {
				e.dedup.remember(m.key, m.op, s.el)
			}
			res.Items[s.idx] = BatchItemResult{Status: BatchStored, Elem: s.el}
		}
		e.publish()
		e.dirty.Store(true)
		res.Epoch = e.Epoch()
		return nil
	})
	if err != nil {
		return BatchResult{}, err
	}
	for _, it := range res.Items {
		switch it.Status {
		case BatchStored:
			res.Stored++
		case BatchDeduped:
			res.Deduped++
		case BatchRejected:
			res.Rejected++
		}
	}
	if lsn != 0 {
		if err := e.waitDurable(lsn); err != nil {
			return BatchResult{}, err
		}
	}
	return res, nil
}

// dataRecord is one backlog record of a data frame with the idempotency
// key its mutation carried. A mutation's key rides on its last record:
// the insert of an insert or modify, the delete of a delete.
type dataRecord struct {
	key string
	rec relation.LogRecord
}

// dataRecords lists the staged mutations' backlog records in commit
// order. A modify is its delete record then its insert record, both at
// the modify's one transaction time.
func dataRecords(muts []mutation, acc []staged) []dataRecord {
	out := make([]dataRecord, 0, len(acc)+1)
	for _, s := range acc {
		key := muts[s.idx].key
		if s.old != nil {
			d := dataRecord{rec: relation.LogRecord{Op: relation.OpDelete, TT: s.tt, Elem: s.old}}
			if s.el == nil {
				d.key = key
			}
			out = append(out, d)
		}
		if s.el != nil {
			out = append(out, dataRecord{key: key, rec: relation.LogRecord{Op: relation.OpInsert, TT: s.el.TTStart, Elem: s.el}})
		}
	}
	return out
}

// encodeData frames backlog records into one walData payload:
//
//	u32 count, then per record: u16 keyLen | key | u32 recLen | record
//
// The per-record key span is what lets follower and boot replay rebuild
// the dedup window from the frame, and the whole payload rides one CRC
// frame so replay is all-or-nothing per batch.
func encodeData(recs []dataRecord) ([]byte, error) {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)))
	for _, d := range recs {
		rb := backlog.EncodeRecord(d.rec)
		out = binary.LittleEndian.AppendUint16(out, uint16(len(d.key)))
		out = append(out, d.key...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(rb)))
		out = append(out, rb...)
	}
	if len(out) > wal.MaxFrameBytes-64 {
		return nil, fmt.Errorf("catalog: batch payload %d bytes exceeds the WAL frame bound; split the batch", len(out))
	}
	return out, nil
}

// decodeData parses a walData payload. It never trusts the count ahead
// of the bytes backing it (fuzzed frames carry absurd counts), and
// rejects trailing garbage so a bit flip past the last record cannot
// hide.
func decodeData(b []byte) ([]dataRecord, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("catalog: short batch payload")
	}
	count := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	// Each record needs at least its two length prefixes; cap the
	// allocation by what the bytes can actually hold.
	if count < 0 || count > len(b)/6+1 {
		return nil, fmt.Errorf("catalog: batch count %d exceeds payload", count)
	}
	out := make([]dataRecord, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("catalog: batch item %d: truncated key length", i)
		}
		kn := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if kn > maxIdemKeyLen {
			return nil, fmt.Errorf("catalog: batch item %d: key length %d exceeds %d", i, kn, maxIdemKeyLen)
		}
		if kn > len(b) {
			return nil, fmt.Errorf("catalog: batch item %d: truncated key", i)
		}
		key := string(b[:kn])
		b = b[kn:]
		if len(b) < 4 {
			return nil, fmt.Errorf("catalog: batch item %d: truncated record length", i)
		}
		rn := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if rn < 0 || rn > len(b) {
			return nil, fmt.Errorf("catalog: batch item %d: record length %d exceeds payload", i, rn)
		}
		rec, err := backlog.DecodeRecord(b[:rn])
		if err != nil {
			return nil, fmt.Errorf("catalog: batch item %d: %w", i, err)
		}
		b = b[rn:]
		out = append(out, dataRecord{key: key, rec: rec})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("catalog: trailing batch payload bytes")
	}
	return out, nil
}

// decodeDataFrame normalizes any data frame into its record list. walData
// is the only kind writers emit; kinds 3–8 are replay-only, kept so logs
// written before the single data frame still recover: a keyed kind is its
// unkeyed payload behind a key span (decodeKeyed), and a modify payload
// is its delete and insert records, each behind a u32 length.
func decodeDataFrame(kind wal.Kind, payload []byte) ([]dataRecord, error) {
	switch kind {
	case walData:
		return decodeData(payload)
	case walInsert, walDelete:
		rec, err := backlog.DecodeRecord(payload)
		return []dataRecord{{rec: rec}}, err
	case walModify:
		del, ins, err := decodeModify(payload)
		return []dataRecord{{rec: del}, {rec: ins}}, err
	case walInsertKeyed, walDeleteKeyed, walModifyKeyed:
		key, inner, err := decodeKeyed(payload)
		if err != nil {
			return nil, err
		}
		recs, err := decodeDataFrame(kind-(walInsertKeyed-walInsert), inner)
		if err != nil {
			return nil, err
		}
		recs[len(recs)-1].key = key
		return recs, nil
	}
	return nil, fmt.Errorf("unknown record kind %d", kind)
}

func decodeModify(b []byte) (del, ins relation.LogRecord, err error) {
	next := func() (relation.LogRecord, error) {
		if len(b) < 4 {
			return relation.LogRecord{}, fmt.Errorf("short modify payload")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if n < 0 || n > len(b) {
			return relation.LogRecord{}, fmt.Errorf("bad modify payload framing")
		}
		rec, err := backlog.DecodeRecord(b[:n])
		b = b[n:]
		return rec, err
	}
	if del, err = next(); err != nil {
		return del, ins, err
	}
	if ins, err = next(); err != nil {
		return del, ins, err
	}
	if len(b) != 0 {
		return del, ins, fmt.Errorf("trailing modify payload bytes")
	}
	return del, ins, nil
}

// replayData applies one frame's records and rebuilds the dedup window
// exactly as the live commit left it. An insert at the transaction time
// of the delete just before it is that delete's modify: each mutation
// takes its own clock tick, so nothing else can share one.
func (e *Entry) replayData(r *relation.Relation, recs []dataRecord) error {
	for i, d := range recs {
		if err := r.ApplyLog(d.rec); err != nil {
			return err
		}
		if d.key == "" {
			continue
		}
		if d.rec.Op == relation.OpDelete {
			e.dedup.remember(d.key, opDelete, nil)
			continue
		}
		op := opInsert
		if i > 0 && recs[i-1].rec.Op == relation.OpDelete && recs[i-1].rec.TT == d.rec.TT {
			op = opModify
		}
		el, _ := r.ByES(d.rec.Elem.ES)
		e.dedup.remember(d.key, op, el)
	}
	return nil
}

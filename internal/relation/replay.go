package relation

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/tx"
)

// Replay reconstructs a relation from a persisted backlog: the append-only
// journal of insertions and logical deletions is the authoritative history
// (the backlog representation of [JMRS90] cited in §2), so replaying it
// rebuilds every historical state. Replay is New plus ApplyLog per record,
// so a corrupt history is rejected by the same validation WAL recovery
// runs; the error names the offending record's index.
//
// Guards are not consulted during replay: the history was validated when
// it was first stored. Attach enforcers after replaying.
func Replay(schema Schema, clock tx.Clock, records []LogRecord) (*Relation, error) {
	r := New(schema, clock)
	for i, rec := range records {
		if err := r.ApplyLog(rec); err != nil {
			return nil, fmt.Errorf("replay record %d: %w", i, err)
		}
	}
	return r, nil
}

// ApplyLog redoes one persisted backlog record against a live relation,
// validating it first: non-decreasing transaction time, consistent
// surrogates, schema-typed values. Replayed elements keep their original
// surrogates and transaction times; the surrogate generators are reserved
// past the record, and an AdvanceTo-capable clock (tx.LogicalClock) is
// advanced to its transaction time, so new transactions cannot collide
// with or precede the history.
//
// Guards are not re-checked (the history was validated when first stored)
// but they do observe the application through Applied, so enforcers
// attached before recovery end warm.
func (r *Relation) ApplyLog(rec LogRecord) error {
	if err := r.checkLog(rec); err != nil {
		return fmt.Errorf("relation %s: log apply: %w", r.schema.Name, err)
	}
	if rec.Op == OpInsert {
		cp := rec.Elem.Clone()
		cp.TTStart = rec.TT
		cp.TTEnd = chronon.Forever
		r.applyInsert(cp)
		r.esGen.Reserve(uint64(cp.ES))
		r.osGen.Reserve(uint64(cp.OS))
	} else {
		r.applyDelete(r.byES[rec.Elem.ES], rec.TT)
	}
	if adv, ok := r.clock.(interface{ AdvanceTo(chronon.Chronon) }); ok {
		adv.AdvanceTo(rec.TT)
	}
	return nil
}

// checkLog validates one backlog record against the relation's state.
func (r *Relation) checkLog(rec LogRecord) error {
	if n := len(r.log); n > 0 && rec.TT < r.log[n-1].TT {
		return fmt.Errorf("tt %v before %v", rec.TT, r.log[n-1].TT)
	}
	e := rec.Elem
	switch {
	case rec.Op != OpInsert && rec.Op != OpDelete:
		return fmt.Errorf("unknown op %d", rec.Op)
	case e == nil:
		return fmt.Errorf("%v without element", rec.Op)
	case rec.Op == OpDelete:
		target, ok := r.byES[e.ES]
		if !ok {
			return fmt.Errorf("delete of unknown element %v", e.ES)
		}
		if !target.Current() {
			return fmt.Errorf("delete of already-deleted element %v", e.ES)
		}
		return nil
	}
	if e.ES.IsNone() || e.OS.IsNone() {
		return fmt.Errorf("missing surrogate")
	}
	if _, dup := r.byES[e.ES]; dup {
		return fmt.Errorf("duplicate element surrogate %v", e.ES)
	}
	if e.VT.Kind() != r.schema.ValidTime {
		return fmt.Errorf("%v stamp in %v relation", e.VT.Kind(), r.schema.ValidTime)
	}
	if err := checkValues(r.schema.Name, "time-invariant", r.schema.Invariant, e.Invariant); err != nil {
		return err
	}
	return checkValues(r.schema.Name, "time-varying", r.schema.Varying, e.Varying)
}

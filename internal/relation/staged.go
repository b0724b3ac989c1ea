package relation

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/element"
	"repro/internal/surrogate"
)

// Staged transactions split a mutation into validate-and-stamp (Stage*)
// and apply (Commit*), so a write-ahead log can sit between the two: the
// caller stages the transaction, appends the stamped records to the log,
// and commits to memory only once the append is accepted. A staging
// failure leaves the relation untouched; an abandoned stage burns only a
// clock tick and a surrogate, both of which tolerate gaps. Commit must be
// called before any other mutation of the relation, or transaction times
// would interleave out of order — the catalog guarantees this by holding
// the relation's exclusive lock across the stage/log/commit sequence.

// StageInsert validates an insertion, stamps it with the next transaction
// time, and runs the guards, without applying it. The returned element is
// exactly what CommitInsert will store.
func (r *Relation) StageInsert(ins Insertion) (*element.Element, error) {
	e, err := r.buildElement(ins)
	if err != nil {
		return nil, err
	}
	e.TTStart = r.clock.Next()
	e.TTEnd = chronon.Forever
	for _, g := range r.guards {
		if err := g.CheckInsert(r, e); err != nil {
			return nil, fmt.Errorf("relation %s: insert %w: %w", r.schema.Name, ErrRejected, err)
		}
	}
	return e, nil
}

// CommitInsert applies a staged insertion.
func (r *Relation) CommitInsert(e *element.Element) { r.applyInsert(e) }

// StageDelete validates a logical deletion and stamps its transaction
// time, without applying it.
func (r *Relation) StageDelete(es surrogate.Surrogate) (*element.Element, chronon.Chronon, error) {
	e, ok := r.byES[es]
	if !ok {
		return nil, 0, fmt.Errorf("relation %s: delete %v: %w", r.schema.Name, es, ErrNoSuchElement)
	}
	if !e.Current() {
		return nil, 0, fmt.Errorf("relation %s: delete %v: %w", r.schema.Name, es, ErrAlreadyDeleted)
	}
	tt := r.clock.Next()
	for _, g := range r.guards {
		if err := g.CheckDelete(r, e, tt); err != nil {
			return nil, 0, fmt.Errorf("relation %s: delete %w: %w", r.schema.Name, ErrRejected, err)
		}
	}
	return e, tt, nil
}

// CommitDelete applies a staged deletion. The element is closed by
// copy-on-close: the returned clone (TTEnd = tt) is what the live relation
// now holds; e itself is left open for any pinned read snapshot. Callers
// that maintain a secondary store must Replace e with the clone there too.
func (r *Relation) CommitDelete(e *element.Element, tt chronon.Chronon) *element.Element {
	return r.applyDelete(e, tt)
}

// StageModify validates the paper's modification — a logical delete of
// the current element plus an insert of its replacement, both at one
// transaction time — without applying either. Commit with CommitDelete
// then CommitInsert, in that order.
func (r *Relation) StageModify(es surrogate.Surrogate, vt element.Timestamp, varying []element.Value) (old, repl *element.Element, tt chronon.Chronon, err error) {
	old, ok := r.byES[es]
	if !ok {
		return nil, nil, 0, fmt.Errorf("relation %s: modify %v: %w", r.schema.Name, es, ErrNoSuchElement)
	}
	if !old.Current() {
		return nil, nil, 0, fmt.Errorf("relation %s: modify %v: %w", r.schema.Name, es, ErrAlreadyDeleted)
	}
	repl, err = r.buildElement(Insertion{
		Object:    old.OS,
		VT:        vt,
		Invariant: old.Invariant,
		Varying:   varying,
		UserTimes: old.UserTimes,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	tt = r.clock.Next()
	repl.TTStart = tt
	repl.TTEnd = chronon.Forever
	for _, g := range r.guards {
		if err := g.CheckDelete(r, old, tt); err != nil {
			return nil, nil, 0, fmt.Errorf("relation %s: modify %w: %w", r.schema.Name, ErrRejected, err)
		}
		if err := g.CheckInsert(r, repl); err != nil {
			return nil, nil, 0, fmt.Errorf("relation %s: modify %w: %w", r.schema.Name, ErrRejected, err)
		}
	}
	return old, repl, tt, nil
}

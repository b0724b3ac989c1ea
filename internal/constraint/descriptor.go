package constraint

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/relation"
)

// DescriptorKind discriminates the constraint kinds a Descriptor can
// carry.
type DescriptorKind uint8

// Descriptor kinds. Determined constraints carry arbitrary Go functions
// and are therefore not describable; attach them afresh after loading.
const (
	DescEvent DescriptorKind = iota
	DescInterEvent
	DescIntervalRegular
	DescInterInterval
)

// String names the kind.
func (k DescriptorKind) String() string {
	switch k {
	case DescEvent:
		return "event"
	case DescInterEvent:
		return "inter-event"
	case DescIntervalRegular:
		return "interval-regular"
	case DescInterInterval:
		return "inter-interval"
	}
	return fmt.Sprintf("DescriptorKind(%d)", uint8(k))
}

// Descriptor is a serializable description of one declared specialization —
// the catalog entry that lets declarations survive persistence. Build one
// with Describe and reconstruct the constraint with Build.
type Descriptor struct {
	Kind        DescriptorKind
	Class       core.Class
	Scope       Scope
	Basis       core.TTBasis
	Endpoint    core.VTEndpoint
	Bounds      []chronon.Duration  // class-specific parameters, canonical order
	Granularity chronon.Granularity // degenerate class only
}

// String renders the descriptor.
func (d Descriptor) String() string {
	return fmt.Sprintf("%v %v (%v)", d.Kind, d.Class, d.Scope)
}

// Describe converts a declared constraint into its descriptor. ok is false
// for constraints that cannot be serialized (Determined carries an
// arbitrary mapping function).
func Describe(c Constraint, scope Scope) (Descriptor, bool) {
	switch c := c.(type) {
	case Event:
		d := Descriptor{Kind: DescEvent, Class: c.Spec.Class(), Scope: scope,
			Basis: c.Basis, Endpoint: c.Endpoint}
		lower, upper := c.Spec.Bounds()
		switch c.Spec.Class() {
		case core.General, core.Retroactive, core.Predictive:
		case core.DelayedRetroactive:
			d.Bounds = []chronon.Duration{upper.Neg()}
		case core.EarlyPredictive:
			d.Bounds = []chronon.Duration{*lower}
		case core.RetroactivelyBounded, core.StronglyRetroactivelyBounded:
			d.Bounds = []chronon.Duration{lower.Neg()}
		case core.DelayedStronglyRetroactivelyBounded:
			d.Bounds = []chronon.Duration{upper.Neg(), lower.Neg()}
		case core.PredictivelyBounded, core.StronglyPredictivelyBounded:
			d.Bounds = []chronon.Duration{*upper}
		case core.EarlyStronglyPredictivelyBounded:
			d.Bounds = []chronon.Duration{*lower, *upper}
		case core.StronglyBounded:
			d.Bounds = []chronon.Duration{lower.Neg(), *upper}
		case core.Degenerate:
			d.Granularity = c.Spec.Granularity()
		default:
			return Descriptor{}, false
		}
		return d, true
	case InterEvent:
		d := Descriptor{Kind: DescInterEvent, Class: c.Spec.Class(), Scope: scope,
			Basis: c.Basis, Endpoint: c.Endpoint}
		if u := c.Spec.Unit(); !u.IsZero() {
			d.Bounds = []chronon.Duration{u}
		}
		return d, true
	case IntervalRegular:
		return Descriptor{Kind: DescIntervalRegular, Class: c.Spec.Class(), Scope: scope,
			Bounds: []chronon.Duration{c.Spec.Unit()}}, true
	case InterInterval:
		return Descriptor{Kind: DescInterInterval, Class: c.Spec.Class(), Scope: scope,
			Basis: c.Basis}, true
	}
	return Descriptor{}, false
}

// DescribeEnforcer converts an enforcer's declarations into descriptors.
// undescribable reports how many constraints could not be serialized.
func DescribeEnforcer(en *Enforcer) (descs []Descriptor, undescribable int) {
	for _, c := range en.Constraints() {
		if d, ok := Describe(c, en.Scope()); ok {
			descs = append(descs, d)
		} else {
			undescribable++
		}
	}
	return descs, undescribable
}

func (d Descriptor) bound(i int) (chronon.Duration, error) {
	if i >= len(d.Bounds) {
		return chronon.Duration{}, fmt.Errorf("constraint: descriptor %v missing bound %d", d, i)
	}
	return d.Bounds[i], nil
}

// Build reconstructs the constraint the descriptor describes.
func (d Descriptor) Build() (Constraint, error) {
	switch d.Kind {
	case DescEvent:
		spec, err := d.buildEventSpec()
		if err != nil {
			return nil, err
		}
		return Event{Spec: spec, Basis: d.Basis, Endpoint: d.Endpoint}, nil
	case DescInterEvent:
		spec, err := d.buildInterEventSpec()
		if err != nil {
			return nil, err
		}
		return InterEvent{Spec: spec, Basis: d.Basis, Endpoint: d.Endpoint}, nil
	case DescIntervalRegular:
		spec, err := d.buildIntervalRegularSpec()
		if err != nil {
			return nil, err
		}
		return IntervalRegular{Spec: spec}, nil
	case DescInterInterval:
		spec, err := d.buildInterIntervalSpec()
		if err != nil {
			return nil, err
		}
		return InterInterval{Spec: spec, Basis: d.Basis}, nil
	}
	return nil, fmt.Errorf("constraint: unknown descriptor kind %v", d.Kind)
}

func (d Descriptor) buildEventSpec() (core.EventSpec, error) {
	one := func(f func(chronon.Duration) (core.EventSpec, error)) (core.EventSpec, error) {
		b, err := d.bound(0)
		if err != nil {
			return core.EventSpec{}, err
		}
		return f(b)
	}
	two := func(f func(a, b chronon.Duration) (core.EventSpec, error)) (core.EventSpec, error) {
		b0, err := d.bound(0)
		if err != nil {
			return core.EventSpec{}, err
		}
		b1, err := d.bound(1)
		if err != nil {
			return core.EventSpec{}, err
		}
		return f(b0, b1)
	}
	switch d.Class {
	case core.General:
		return core.GeneralSpec(), nil
	case core.Retroactive:
		return core.RetroactiveSpec(), nil
	case core.Predictive:
		return core.PredictiveSpec(), nil
	case core.DelayedRetroactive:
		return one(core.DelayedRetroactiveSpec)
	case core.EarlyPredictive:
		return one(core.EarlyPredictiveSpec)
	case core.RetroactivelyBounded:
		return one(core.RetroactivelyBoundedSpec)
	case core.StronglyRetroactivelyBounded:
		return one(core.StronglyRetroactivelyBoundedSpec)
	case core.DelayedStronglyRetroactivelyBounded:
		return two(core.DelayedStronglyRetroactivelyBoundedSpec)
	case core.PredictivelyBounded:
		return one(core.PredictivelyBoundedSpec)
	case core.StronglyPredictivelyBounded:
		return one(core.StronglyPredictivelyBoundedSpec)
	case core.EarlyStronglyPredictivelyBounded:
		return two(core.EarlyStronglyPredictivelyBoundedSpec)
	case core.StronglyBounded:
		return two(core.StronglyBoundedSpec)
	case core.Degenerate:
		return core.DegenerateSpec(d.Granularity)
	}
	return core.EventSpec{}, fmt.Errorf("constraint: %v is not an event class", d.Class)
}

func (d Descriptor) buildInterEventSpec() (core.InterEventSpec, error) {
	switch d.Class {
	case core.GloballySequentialEvents:
		return core.SequentialEventsSpec(), nil
	case core.GloballyNonDecreasingEvents:
		return core.NonDecreasingEventsSpec(), nil
	case core.GloballyNonIncreasingEvents:
		return core.NonIncreasingEventsSpec(), nil
	}
	b, err := d.bound(0)
	if err != nil {
		return core.InterEventSpec{}, err
	}
	switch d.Class {
	case core.TTEventRegular:
		return core.TTEventRegularSpec(b)
	case core.VTEventRegular:
		return core.VTEventRegularSpec(b)
	case core.TemporalEventRegular:
		return core.TemporalEventRegularSpec(b)
	case core.StrictTTEventRegular:
		return core.StrictTTEventRegularSpec(b)
	case core.StrictVTEventRegular:
		return core.StrictVTEventRegularSpec(b)
	case core.StrictTemporalEventRegular:
		return core.StrictTemporalEventRegularSpec(b)
	}
	return core.InterEventSpec{}, fmt.Errorf("constraint: %v is not an inter-event class", d.Class)
}

func (d Descriptor) buildIntervalRegularSpec() (core.IntervalRegularSpec, error) {
	b, err := d.bound(0)
	if err != nil {
		return core.IntervalRegularSpec{}, err
	}
	switch d.Class {
	case core.TTIntervalRegular:
		return core.TTIntervalRegularSpec(b)
	case core.VTIntervalRegular:
		return core.VTIntervalRegularSpec(b)
	case core.TemporalIntervalRegular:
		return core.TemporalIntervalRegularSpec(b)
	case core.StrictTTIntervalRegular:
		return core.StrictTTIntervalRegularSpec(b)
	case core.StrictVTIntervalRegular:
		return core.StrictVTIntervalRegularSpec(b)
	case core.StrictTemporalIntervalRegular:
		return core.StrictTemporalIntervalRegularSpec(b)
	}
	return core.IntervalRegularSpec{}, fmt.Errorf("constraint: %v is not an interval-regular class", d.Class)
}

func (d Descriptor) buildInterIntervalSpec() (core.InterIntervalSpec, error) {
	switch d.Class {
	case core.GloballySequentialIntervals:
		return core.SequentialIntervalsSpec(), nil
	case core.GloballyNonDecreasingIntervals:
		return core.NonDecreasingIntervalsSpec(), nil
	case core.GloballyNonIncreasingIntervals:
		return core.NonIncreasingIntervalsSpec(), nil
	}
	if d.Class >= core.STBefore && d.Class <= core.STFinishedBy {
		return core.SuccessiveTTSpec(interval.Relation(d.Class - core.STBefore)), nil
	}
	return core.InterIntervalSpec{}, fmt.Errorf("constraint: %v is not an inter-interval class", d.Class)
}

// BuildAll reconstructs constraints grouped by scope and returns one
// enforcer per scope present.
func BuildAll(descs []Descriptor) (map[Scope][]Constraint, error) {
	out := make(map[Scope][]Constraint)
	for _, d := range descs {
		c, err := d.Build()
		if err != nil {
			return nil, err
		}
		out[d.Scope] = append(out[d.Scope], c)
	}
	return out, nil
}

// Restore attaches the descriptors' constraints to r as enforcers, one per
// scope, each warmed with r's backlog so the next transaction is validated
// against the full state. The history is not re-checked: it was validated
// when first stored. Snapshot load and declaration replay both use it.
func Restore(r *relation.Relation, descs []Descriptor) error {
	byScope, err := BuildAll(descs)
	if err != nil {
		return err
	}
	for scope, cs := range byScope {
		en := NewEnforcer(scope, cs...)
		for _, rec := range r.Backlog() {
			en.Applied(r, rec.Op, rec.Elem, rec.TT)
		}
		r.AddGuard(en)
	}
	return nil
}

package main

import (
	"math"
	mrand "math/rand"
	"sort"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of the positive values xs (0 when
// there are none).
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// durUS converts durations to microseconds.
func durUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// durMS converts durations to milliseconds.
func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies collects operation latencies of one client, keyed by class
// ("read", "write", "agg", "batch") or by "class/kind".
type latencies map[string][]time.Duration

func (l latencies) add(class string, d time.Duration) { l[class] = append(l[class], d) }

// merge folds other into l.
func (l latencies) merge(other latencies) {
	for k, v := range other {
		l[k] = append(l[k], v...)
	}
}

// all returns every class's samples together.
func (l latencies) all() []time.Duration {
	var out []time.Duration
	for _, v := range l {
		out = append(out, v...)
	}
	return out
}

// byClass pools the samples of each class over its kinds.
func (l latencies) byClass() latencies {
	out := latencies{}
	for k, v := range l {
		class, _, _ := strings.Cut(k, "/")
		out[class] = append(out[class], v...)
	}
	return out
}

// deck deals operation kinds in the exact proportions of their weights:
// each pass over the cards is a fresh seeded shuffle, so every seed runs
// the same mix and only the order of the kinds varies.
type deck struct {
	rng   *mrand.Rand
	cards []string
	next  int
}

func newDeck(rng *mrand.Rand, kinds []string, weights []int) *deck {
	g := 0
	for _, w := range weights {
		g = gcd(g, w)
	}
	d := &deck{rng: rng}
	for i, k := range kinds {
		for j := 0; j < weights[i]/g; j++ {
			d.cards = append(d.cards, k)
		}
	}
	return d
}

func (d *deck) deal() string {
	if d.next == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

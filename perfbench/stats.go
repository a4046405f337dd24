package main

import (
	"math"
	"sort"
	"time"
)

// samples is one timing series in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile returns the q-quantile (0..1) by linear interpolation between
// closest ranks, or 0 for an empty series.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) p50() float64 { return s.quantile(0.5) }
func (s samples) p90() float64 { return s.quantile(0.9) }

// sum returns the series total.
func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

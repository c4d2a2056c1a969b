// Package xmath supplies the numerical routines the rest of the module is
// built on: one-dimensional root finding and minimization, polynomial
// roots, compensated summation and a small Nelder-Mead simplex optimizer.
//
// The Go standard library deliberately ships only a thin math package; this
// package fills the gap the reproduction needs (distribution fitting and
// queueing tails) without any third-party dependency.
package xmath

import (
	"errors"
	"math"
)

// ErrBracket is returned when a root finder is given an interval whose
// endpoints do not bracket a sign change.
var ErrBracket = errors.New("xmath: interval does not bracket a root")

// KahanSum accumulates a sum in compensated (Kahan-Babuska) arithmetic.
// The zero value is ready to use.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum + k.c }

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

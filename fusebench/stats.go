package main

import "slices"

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (numpy's default). It does not modify
// xs. An empty sample has no percentile; it reads as 0, the value every
// per-layer metric takes when its layer did no work.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// mean is the arithmetic mean of xs (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio divides, reading 0/0 as 0 (a layer that saw no traffic).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

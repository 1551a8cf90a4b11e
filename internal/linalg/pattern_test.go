package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortTriplets is the assembly FromTriplets used before Pattern: sort a
// copy of the triplets themselves, then sum each run of equal coordinates
// in sorted order. Kept as the reference Pattern must match bit for bit.
func sortTriplets(n int, ts []Triplet) *CSR {
	sorted := make([]Triplet, len(ts))
	copy(sorted, ts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.Col = append(m.Col, sorted[i].Col)
			m.Val = append(m.Val, v)
			m.RowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < n; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// sameCSR reports whether two matrices have the same structure and
// bit-identical values.
func sameCSR(a, b *CSR) bool {
	if a.N != b.N || len(a.RowPtr) != len(b.RowPtr) || len(a.Col) != len(b.Col) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// randomValue draws from a mix that makes duplicate order matter: values of
// very different magnitudes (so summation order changes the rounding) and
// exact opposites (so some runs cancel to zero and must be dropped).
func randomValue(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return float64(rng.Intn(5) - 2)
	case 1:
		return rng.NormFloat64() * 1e-6
	default:
		return rng.NormFloat64()
	}
}

// TestPatternMatchesSortedTriplets reuses one Pattern across several value
// sets, as the placer's anchored rounds do, and compares each assembly with
// the reference on random triplet lists full of duplicates and zero sums.
func TestPatternMatchesSortedTriplets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		n := 1 + rng.Intn(12)
		ts := make([]Triplet, rng.Intn(120))
		for k := range ts {
			ts[k] = Triplet{Row: rng.Intn(n), Col: rng.Intn(n), Val: randomValue(rng)}
			if k > 0 && rng.Intn(4) == 0 {
				// An exact opposite of an earlier entry at the same spot.
				prev := ts[rng.Intn(k)]
				ts[k] = Triplet{Row: prev.Row, Col: prev.Col, Val: -prev.Val}
			}
		}
		p, err := NewPattern(n, ts)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			if round > 0 {
				for k := range ts {
					if rng.Intn(2) == 0 {
						ts[k].Val = randomValue(rng)
					}
				}
			}
			if got, want := p.Assemble(ts), sortTriplets(n, ts); !sameCSR(got, want) {
				t.Fatalf("iteration %d round %d: Pattern.Assemble = %+v, reference %+v", i, round, got, want)
			}
			if got, _ := FromTriplets(n, ts); !sameCSR(got, sortTriplets(n, ts)) {
				t.Fatalf("iteration %d round %d: FromTriplets diverged from the reference", i, round)
			}
		}
	}
}

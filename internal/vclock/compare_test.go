package vclock

import (
	"math/rand"
	"testing"
)

// TestCompareLessImplMatchesScalar differentially tests the arch-specific
// CompareLess implementation (the AVX2 kernel on amd64) against the portable
// scalar loop across widths straddling the vector break-even point and the
// 4-component vector stride, with component values clustered near the
// unsigned/signed boundary to exercise the kernel's sign-flip compare idiom.
func TestCompareLessImplMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	pools := [][]uint32{
		{0, 1, 2, 3},
		{0, 1, 1<<31 - 1, 1 << 31, 1<<31 + 1, ^uint32(0)},
	}
	for _, n := range []int{1, 3, 4, 5, 15, 16, 17, 31, 32, 63, 64, 100, 1023} {
		for _, pool := range pools {
			for trial := 0; trial < 300; trial++ {
				aLo, bHi := make(VC, n), make(VC, n)
				bLo, aHi := make(VC, n), make(VC, n)
				for k := 0; k < n; k++ {
					aLo[k] = pool[r.Intn(len(pool))]
					bHi[k] = pool[r.Intn(len(pool))]
					bLo[k] = pool[r.Intn(len(pool))]
					aHi[k] = pool[r.Intn(len(pool))]
				}
				w1, w2 := compareLessScalar(aLo, bHi, bLo, aHi)
				g1, g2 := CompareLess(aLo, bHi, bLo, aHi)
				if w1 != g1 || w2 != g2 {
					t.Fatalf("n=%d: CompareLess = (%v,%v), scalar oracle = (%v,%v)\naLo=%v\nbHi=%v\nbLo=%v\naHi=%v",
						n, g1, g2, w1, w2, aLo, bHi, bLo, aHi)
				}
			}
		}
	}
}

// TestCompareLessEqualClocks pins the strictness rule (equal clocks are not
// Less) through the dispatch at a width the vector kernel handles.
func TestCompareLessEqualClocks(t *testing.T) {
	v := make(VC, 64)
	for k := range v {
		v[k] = uint32(k)
	}
	if a, b := CompareLess(v, v, v, v); a || b {
		t.Fatalf("CompareLess(v,v,v,v) = (%v,%v), want (false,false)", a, b)
	}
}

// TestLessBlockBoundaries plants the one refuting component of an otherwise
// strictly smaller clock at each edge of the kernel's eight-component blocks
// and of its scalar tail, across widths below, at and above compareVecMin.
func TestLessBlockBoundaries(t *testing.T) {
	for _, n := range []int{15, 16, 17, 63, 127, 273} {
		v, u := make(VC, n), make(VC, n)
		for i := range v {
			v[i] = uint32(i)
			u[i] = v[i] + 1
		}
		if !v.Less(u) || u.Less(v) {
			t.Fatalf("n=%d: v < u, but Less says %v and u < v %v", n, v.Less(u), u.Less(v))
		}
		if v.Less(v) {
			t.Fatalf("n=%d: a clock is Less than itself", n)
		}
		for _, k := range []int{0, 7, 8, 15, 16, n - 1} {
			if k >= n {
				continue
			}
			w := v.Clone()
			w[k] = u[k] + 1
			if w.Less(u) || lessScalar(w, u) {
				t.Fatalf("n=%d: refutation at %d missed", n, k)
			}
			// Equal everywhere but one strictly smaller component at k.
			e := u.Clone()
			e[k]--
			if !e.Less(u) || !lessScalar(e, u) {
				t.Fatalf("n=%d: strictness only at %d missed", n, k)
			}
		}
	}
}

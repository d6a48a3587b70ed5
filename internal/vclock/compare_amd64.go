//go:build amd64

package vclock

import "math"

// The AVX2 comparison kernel. The detection hot path is dominated by fused
// bound comparisons whose common verdict (pairwise overlap) requires scanning
// every component, so the kernel drops the scalar loop's early exits and
// instead streams all four operand clocks eight uint32 components per step,
// accumulating per-lane "exceeds" and "equal" masks that reduce to the four
// facts CompareLess needs: ∃k a[k]>b[k] and ∃k a[k]≠b[k], per direction.
//
// Less is the other way round: its common verdict is false (Eq. 10's prune
// meets concurrent upper bounds, refuted a few dozen components in), so its
// kernel, lessBlocks, keeps the early exit and stops at the first eight-
// component block where some component of v exceeds u's.

// compareQuadBits is the bit layout of compareQuad's result.
const (
	cmpFailA   = 1 << 0 // ∃k: aLo[k] > bHi[k]
	cmpStrictA = 1 << 1 // ∃k: aLo[k] ≠ bHi[k]
	cmpFailB   = 1 << 2 // ∃k: bLo[k] > aHi[k]
	cmpStrictB = 1 << 3 // ∃k: bLo[k] ≠ aHi[k]
)

// compareQuad scans n components (n > 0, n ≡ 0 mod 8) of the four clocks and
// returns the cmp* facts as a bitmask. Implemented in compare_amd64.s;
// requires AVX2.
//
//go:noescape
func compareQuad(aLo, bHi, bLo, aHi *uint32, n int) uint64

// cpuHasAVX2 reports AVX2 support with OS-enabled YMM state (CPUID +
// XGETBV); implemented in compare_amd64.s.
func cpuHasAVX2() bool

var hasAVX2 = cpuHasAVX2()

// compareVecMin is the clock width from which the vector kernel beats the
// scalar loop (kernel call overhead plus the lost early exits amortize over
// the streamed components).
const compareVecMin = 16

// lessBlocks' result bits.
const (
	lessFail   = 1 << 0 // ∃k: v[k] > u[k] (the scan stopped at its block)
	lessStrict = 1 << 1 // ∃k: v[k] ≠ u[k], every block scanned
)

// lessBlocks scans n components (n > 0, n ≡ 0 mod 8) of v and u, stopping at
// the first refuting block, and returns the less* facts as a bitmask.
// Implemented in compare_amd64.s; requires AVX2.
//
//go:noescape
func lessBlocks(v, u *uint32, n int) uint64

// lessVecMin is the clock width from which Less runs the kernel: the
// compareVecMin break-even with AVX2, never without.
var lessVecMin = func() int {
	if hasAVX2 {
		return compareVecMin
	}
	return math.MaxInt
}()

// lessVec is Less by the kernel, the tail past the last whole block scalar.
func lessVec(v, u VC) bool {
	m := len(v) &^ 7
	bits := lessBlocks(&v[0], &u[0], m)
	return bits&lessFail == 0 && lessFrom(v, u, m, bits&lessStrict != 0)
}

func compareLessImpl(aLo, bHi, bLo, aHi VC) (aLob, bLoa bool) {
	n := len(aLo)
	if !hasAVX2 || n < compareVecMin {
		return compareLessScalar(aLo, bHi, bLo, aHi)
	}
	m := n &^ 7
	bits := compareQuad(&aLo[0], &bHi[0], &bLo[0], &aHi[0], m)
	failA, strictA := bits&cmpFailA != 0, bits&cmpStrictA != 0
	failB, strictB := bits&cmpFailB != 0, bits&cmpStrictB != 0
	for k := m; k < n; k++ {
		a, b, c, d := aLo[k], bHi[k], bLo[k], aHi[k]
		if a > b {
			failA = true
		}
		if a != b {
			strictA = true
		}
		if c > d {
			failB = true
		}
		if c != d {
			strictB = true
		}
	}
	return !failA && strictA, !failB && strictB
}

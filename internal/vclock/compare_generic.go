//go:build !amd64

package vclock

import "math"

// lessVecMin keeps Less on lessScalar: there is no kernel here.
const lessVecMin = math.MaxInt

func lessVec(v, u VC) bool { return lessScalar(v, u) }

func compareLessImpl(aLo, bHi, bLo, aHi VC) (aLob, bLoa bool) {
	return compareLessScalar(aLo, bHi, bLo, aHi)
}

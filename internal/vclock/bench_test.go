package vclock

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchPair(n int) (VC, VC) {
	r := rand.New(rand.NewSource(int64(n)))
	a, b := make(VC, n), make(VC, n)
	for i := range a {
		a[i] = uint32(r.Intn(100))
		b[i] = a[i] + uint32(r.Intn(3)) // mostly comparable, some ties
	}
	return a, b
}

// BenchmarkLess is the detector's innermost operation: the O(n) factor in
// every complexity bound of §IV. The refute=k cases plant the one component
// that refutes an otherwise true comparison at k — where Eq. 10's prune,
// whose verdict is almost always false, stops — and the true cases scan all.
func BenchmarkLess(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		x, y := benchPair(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = x.Less(y)
			}
		})
	}
	for _, n := range []int{63, 127, 273} {
		x, y := make(VC, n), make(VC, n)
		for i := range x {
			x[i], y[i] = uint32(i), uint32(i)+1
		}
		for _, k := range []int{0, 64, n - 1} {
			if k >= n {
				continue
			}
			z := x.Clone()
			z[k] = y[k] + 1
			b.Run(fmt.Sprintf("n=%d/refute=%d", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = z.Less(y)
				}
			})
		}
		b.Run(fmt.Sprintf("n=%d/true", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = x.Less(y)
			}
		})
	}
}

func BenchmarkCompare(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		x, y := benchPair(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = x.Compare(y)
			}
		})
	}
}

func BenchmarkMergeMax(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		x, y := benchPair(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.MergeMax(y)
			}
		})
	}
}

func BenchmarkMarshal(b *testing.B) {
	x, _ := benchPair(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = x.MarshalBinary()
	}
}

// BenchmarkCompareLess measures the fused paired comparison against two
// separate Less calls on the same operands — the elimination loop's inner
// step.
func BenchmarkCompareLess(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		xLo, yHi := benchPair(n)
		yLo, xHi := benchPair(n + 1)
		yLo, xHi = yLo[:n], xHi[:n]
		b.Run(fmt.Sprintf("fused/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = CompareLess(xLo, yHi, yLo, xHi)
			}
		})
		b.Run(fmt.Sprintf("separate/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = xLo.Less(yHi)
				_ = yLo.Less(xHi)
			}
		})
	}
}

// deltaShapes are the clocks the delta codec meets, each against base:
// "copy" equals it but for one component (a chained Lo), "step" is one
// difference throughout but for one component (a Hi against its Lo), and
// "mixed" moves each component by 0, 1 or 2 in turn, which the runs form
// cannot shorten (the per-component fallback, after a runs pass).
func deltaShapes(n int) (base VC, shapes []struct {
	name string
	v    VC
}) {
	base = make(VC, n)
	for i := range base {
		base[i] = uint32(1000 + 13*i)
	}
	add := func(name string, f func(i int) uint32) {
		v := base.Clone()
		for i := range v {
			v[i] += f(i)
		}
		shapes = append(shapes, struct {
			name string
			v    VC
		}{name, v})
	}
	add("copy", func(i int) uint32 { return uint32(b2i(i == n/3)) * 3 })
	add("step", func(i int) uint32 { return 2 + uint32(b2i(i == 2*n/3))*5 })
	add("mixed", func(i int) uint32 { return uint32(i % 3) })
	return base, shapes
}

// BenchmarkAppendDelta measures the v2 codec on the clocks it is built for.
// bytes/frame makes the compression visible next to v1's fixed 4+8n.
func BenchmarkAppendDelta(b *testing.B) {
	for _, n := range []int{8, 127, 512} {
		base, shapes := deltaShapes(n)
		for _, sh := range shapes {
			buf := make([]byte, 0, WireSize(n))
			b.Run(fmt.Sprintf("n=%d/%s", n, sh.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf = sh.v.AppendDelta(buf[:0], base)
				}
				b.ReportMetric(float64(len(buf)), "bytes/frame")
			})
		}
	}
}

func BenchmarkConsumeDelta(b *testing.B) {
	for _, n := range []int{8, 127, 512} {
		base, shapes := deltaShapes(n)
		for _, sh := range shapes {
			data := sh.v.AppendDelta(nil, base)
			dst := make(VC, n)
			b.Run(fmt.Sprintf("n=%d/%s", n, sh.name), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ConsumeDelta(data, &dst, base); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkString covers the Strict-mode panic/debug formatting path.
func BenchmarkString(b *testing.B) {
	x, _ := benchPair(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.String()
	}
}

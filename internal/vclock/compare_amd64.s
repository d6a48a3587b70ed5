//go:build amd64

#include "textflag.h"

// func compareQuad(aLo, bHi, bLo, aHi *uint32, n int) uint64
//
// Streams the four clocks eight uint32 components per step, accumulating
// per-lane masks for "aLo exceeds bHi" / "bLo exceeds aHi" (unsigned, via the
// sign-flip + signed-compare idiom: VPCMPGTD is signed-only) and for
// component equality per direction. n must be positive and a multiple of 8;
// the caller handles the scalar tail.
TEXT ·compareQuad(SB), NOSPLIT, $0-48
	MOVQ aLo+0(FP), SI
	MOVQ bHi+8(FP), DI
	MOVQ bLo+16(FP), R8
	MOVQ aHi+24(FP), R9
	MOVQ n+32(FP), CX

	// Y15 = sign-flip constant, broadcast 0x80000000.
	MOVL $1, AX
	SHLL $31, AX
	MOVL AX, X0
	VPBROADCASTD X0, Y15

	VPXOR Y12, Y12, Y12        // gtA accumulator (any lane set => failA)
	VPXOR Y13, Y13, Y13        // gtB accumulator
	VPCMPEQD Y14, Y14, Y14     // eqA accumulator (all ones; AND of eq masks)
	VMOVDQA Y14, Y11           // eqB accumulator

	CMPQ CX, $16
	JL   loop

loop16:	// two vector steps per iteration while at least 16 components remain
	VMOVDQU (SI), Y0
	VMOVDQU (DI), Y1
	VMOVDQU (R8), Y2
	VMOVDQU (R9), Y3
	VMOVDQU 32(SI), Y4
	VMOVDQU 32(DI), Y5
	VMOVDQU 32(R8), Y6
	VMOVDQU 32(R9), Y7

	VPCMPEQD Y1, Y0, Y8
	VPAND Y8, Y14, Y14
	VPCMPEQD Y3, Y2, Y9
	VPAND Y9, Y11, Y11
	VPCMPEQD Y5, Y4, Y8
	VPAND Y8, Y14, Y14
	VPCMPEQD Y7, Y6, Y9
	VPAND Y9, Y11, Y11

	VPXOR Y15, Y0, Y0
	VPXOR Y15, Y1, Y1
	VPCMPGTD Y1, Y0, Y0
	VPOR Y0, Y12, Y12
	VPXOR Y15, Y2, Y2
	VPXOR Y15, Y3, Y3
	VPCMPGTD Y3, Y2, Y2
	VPOR Y2, Y13, Y13
	VPXOR Y15, Y4, Y4
	VPXOR Y15, Y5, Y5
	VPCMPGTD Y5, Y4, Y4
	VPOR Y4, Y12, Y12
	VPXOR Y15, Y6, Y6
	VPXOR Y15, Y7, Y7
	VPCMPGTD Y7, Y6, Y6
	VPOR Y6, Y13, Y13

	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $64, R9
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  loop16

	TESTQ CX, CX
	JZ   done

loop:	// one vector step for the remaining 8 components
	VMOVDQU (SI), Y0           // aLo
	VMOVDQU (DI), Y1           // bHi
	VMOVDQU (R8), Y2           // bLo
	VMOVDQU (R9), Y3           // aHi

	VPCMPEQD Y1, Y0, Y4        // aLo == bHi per lane
	VPAND Y4, Y14, Y14
	VPCMPEQD Y3, Y2, Y5        // bLo == aHi per lane
	VPAND Y5, Y11, Y11

	VPXOR Y15, Y0, Y6
	VPXOR Y15, Y1, Y7
	VPCMPGTD Y7, Y6, Y6        // aLo > bHi per lane (unsigned)
	VPOR Y6, Y12, Y12
	VPXOR Y15, Y2, Y8
	VPXOR Y15, Y3, Y9
	VPCMPGTD Y9, Y8, Y8        // bLo > aHi per lane (unsigned)
	VPOR Y8, Y13, Y13

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $8, CX
	JNZ  loop

done:
	VPMOVMSKB Y12, AX
	VPMOVMSKB Y13, BX
	VPMOVMSKB Y14, DX
	VPMOVMSKB Y11, R10

	XORQ R11, R11
	TESTL AX, AX               // failA: any gtA lane
	JZ   noFailA
	ORQ  $1, R11

noFailA:
	CMPL DX, $-1               // strictA: some lane not equal
	JE   noStrictA
	ORQ  $2, R11

noStrictA:
	TESTL BX, BX               // failB: any gtB lane
	JZ   noFailB
	ORQ  $4, R11

noFailB:
	CMPL R10, $-1              // strictB: some lane not equal
	JE   noStrictB
	ORQ  $8, R11

noStrictB:
	VZEROUPPER
	MOVQ R11, ret+40(FP)
	RET

// func lessBlocks(v, u *uint32, n int) uint64
//
// Scans v and u eight uint32 components per step and returns lessFail at the
// first step holding a component with v[k] > u[k]. A lane has v ≤ u when
// max(v, u) == u (VPMAXUD is unsigned: no sign-flip idiom). Past the last
// step the result is lessStrict when some component differed, else 0. n must
// be positive and a multiple of 8; the caller handles the scalar tail.
TEXT ·lessBlocks(SB), NOSPLIT, $0-32
	MOVQ v+0(FP), SI
	MOVQ u+8(FP), DI
	MOVQ n+16(FP), CX
	VPCMPEQD Y14, Y14, Y14     // eq accumulator (all ones; AND of eq masks)

lessLoop:
	VMOVDQU (SI), Y0           // v
	VMOVDQU (DI), Y1           // u
	VPMAXUD Y1, Y0, Y2
	VPCMPEQD Y1, Y2, Y2        // v ≤ u per lane
	VPMOVMSKB Y2, AX
	CMPL AX, $-1
	JNE  lessRefuted
	VPCMPEQD Y1, Y0, Y3        // v == u per lane
	VPAND Y3, Y14, Y14
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  lessLoop

	XORQ R11, R11
	VPMOVMSKB Y14, AX
	CMPL AX, $-1               // strict: some lane not equal
	JE   lessDone
	MOVQ $2, R11

lessDone:
	VZEROUPPER
	MOVQ R11, ret+24(FP)
	RET

lessRefuted:
	VZEROUPPER
	MOVQ $1, ret+24(FP)
	RET

// func cpuHasAVX2() bool
//
// CPUID leaf 1 for OSXSAVE+AVX, XGETBV XCR0 for OS-enabled XMM/YMM state,
// CPUID leaf 7 for AVX2 — the standard dependency-free detection sequence.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, SI
	ANDL $0x18000000, SI       // OSXSAVE (bit 27) | AVX (bit 28)
	CMPL SI, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX                // XCR0: XMM (bit 1) | YMM (bit 2) enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX            // AVX2 (EBX bit 5)
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

//go:build amd64 && !purego

#include "textflag.h"

// func hasAVX2() bool
//
// CPUID leaf 7 must report AVX2, leaf 1 AVX and OSXSAVE, and XCR0 must
// show the OS saving the XMM and YMM state (bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL CX, CX
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (27) and AVX (28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX // AVX2 (bit 5)
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func filterNode(blk []float64, slots, dims, n int, q *Rect) (hit, in uint64)
//
// Four entries per step, from the last group of four down to the
// first, so each group's 4 mask bits shift in below the ones already
// gathered. Per dimension d of a group, with lo and hi its 4 entries'
// bounds and ql, qh q's bounds broadcast:
//
//	hit &= NGT_US(ql, hi) & NGT_US(lo, qh)   // !(ql > hi) && !(lo > qh)
//	in  &= LE_OS(ql, lo) & LE_OS(hi, qh)     // ql <= lo && hi <= qh
//
// An unordered compare (a NaN) is true for NGT_US and false for LE_OS,
// as in Go. Bits of hit at and above n are cleared; in is read only
// where hit is set.
TEXT ·filterNode(SB), NOSPLIT, $0-72
	MOVQ blk_base+0(FP), SI
	MOVQ slots+24(FP), R8
	MOVQ dims+32(FP), R9
	MOVQ n+40(FP), DX
	MOVQ q+48(FP), DI
	XORQ AX, AX
	XORQ BX, BX
	TESTQ DX, DX
	JLE  done
	SHLQ $3, R8          // R8: bytes per row of slots
	MOVQ R9, R10
	IMULQ R8, R10        // R10: bytes from a lower bound to its upper
	LEAQ -1(DX), R11
	SHRQ $2, R11         // R11: index of the last group
	MOVQ R11, R12
	SHLQ $5, R12
	ADDQ R12, SI         // SI: the last group's first lower bound
	INCQ R11             // R11: groups left

group:
	VPCMPEQQ Y6, Y6, Y6  // hit: all ones
	VPCMPEQQ Y7, Y7, Y7  // in: all ones
	MOVQ SI, R12
	MOVQ DI, R13
	MOVQ R9, CX

dim:
	VMOVUPD      (R12), Y0
	VMOVUPD      (R12)(R10*1), Y1
	VBROADCASTSD (R13), Y2  // ql
	VBROADCASTSD 32(R13), Y3 // qh: Rect.Hi follows MaxDims = 4 lower bounds
	VCMPPD       $0x0a, Y1, Y2, Y4 // NGT_US(ql, hi)
	VCMPPD       $0x0a, Y3, Y0, Y5 // NGT_US(lo, qh)
	VANDPD       Y4, Y6, Y6
	VANDPD       Y5, Y6, Y6
	VCMPPD       $0x02, Y0, Y2, Y4 // LE_OS(ql, lo)
	VCMPPD       $0x02, Y3, Y1, Y5 // LE_OS(hi, qh)
	VANDPD       Y4, Y7, Y7
	VANDPD       Y5, Y7, Y7
	ADDQ         R8, R12
	ADDQ         $8, R13
	DECQ         CX
	JNZ          dim

	VMOVMSKPD Y6, R12
	VMOVMSKPD Y7, R13
	SHLQ      $4, AX
	ORQ       R12, AX
	SHLQ      $4, BX
	ORQ       R13, BX
	SUBQ      $32, SI
	DECQ      R11
	JNZ       group

	VZEROUPPER
	CMPQ DX, $64
	JAE  done
	MOVQ DX, CX
	MOVQ $1, R12
	SHLQ CX, R12
	DECQ R12
	ANDQ R12, AX

done:
	MOVQ AX, hit+56(FP)
	MOVQ BX, in+64(FP)
	RET

#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 27 is OSXSAVE (XGETBV usable), bit 28 is AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM halves.
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func stepAVX(m, c, t, p, next []float64)
//
// Each YMM lane is one row. For the block of rows 8k..8k+7, Y0/Y4 (rows
// 8k..8k+3 / 8k+4..8k+7) accumulate A·t over even columns, Y1/Y5 over odd
// columns, Y2/Y6 and Y3/Y7 B·p likewise, and the block's result is
// c + ((sa0+sa1) + (sb0+sb1)). That is the Go loop's operation order, with
// separate multiplies and adds (no FMA), so every row rounds exactly as it
// does there.
//
// SI walks the block's A columns and R12 its B columns, 64 bytes (eight rows)
// per column; AX is the column index j and CX the node count n.
TEXT ·stepAVX(SB), NOSPLIT, $0-120
	MOVQ m_base+0(FP), SI
	MOVQ c_base+24(FP), DX
	MOVQ c_len+32(FP), R8
	MOVQ t_base+48(FP), BX
	MOVQ t_len+56(FP), CX
	MOVQ p_base+72(FP), R9
	MOVQ next_base+96(FP), DI
	MOVQ CX, R10
	SHLQ $6, R10 // 64*n: bytes from a block's A columns to its B columns

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (SI)(R10*1), R12
	XORQ   AX, AX
	LEAQ   1(AX), R11
	CMPQ   R11, CX
	JGE    tail

pairs: // for j+1 < n: columns j and j+1
	VBROADCASTSD (BX)(AX*8), Y8   // t[j]
	VBROADCASTSD 8(BX)(AX*8), Y9  // t[j+1]
	VBROADCASTSD (R9)(AX*8), Y10  // p[j]
	VBROADCASTSD 8(R9)(AX*8), Y11 // p[j+1]
	VMULPD       (SI), Y8, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       32(SI), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       64(SI), Y9, Y14
	VADDPD       Y14, Y1, Y1
	VMULPD       96(SI), Y9, Y15
	VADDPD       Y15, Y5, Y5
	VMULPD       (R12), Y10, Y12
	VADDPD       Y12, Y2, Y2
	VMULPD       32(R12), Y10, Y13
	VADDPD       Y13, Y6, Y6
	VMULPD       64(R12), Y11, Y14
	VADDPD       Y14, Y3, Y3
	VMULPD       96(R12), Y11, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         $128, SI
	ADDQ         $128, R12
	ADDQ         $2, AX
	LEAQ         1(AX), R11
	CMPQ         R11, CX
	JL           pairs

tail: // odd n: the last column joins the even chains
	CMPQ         AX, CX
	JGE          sum
	VBROADCASTSD (BX)(AX*8), Y8
	VBROADCASTSD (R9)(AX*8), Y10
	VMULPD       (SI), Y8, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       32(SI), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       (R12), Y10, Y12
	VADDPD       Y12, Y2, Y2
	VMULPD       32(R12), Y10, Y13
	VADDPD       Y13, Y6, Y6
	ADDQ         $64, R12

sum:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VADDPD  (DX), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VADDPD  32(DX), Y4, Y4
	VMOVUPD Y4, 32(DI)
	MOVQ    R12, SI // the next block starts where this one's B columns end
	ADDQ    $64, DX
	ADDQ    $64, DI
	SUBQ    $8, R8
	JNZ     block
	VZEROUPPER
	RET

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemm4x8(d, a, b *float64, k, ars, aps, bps, n, nt int)
//
// For each 8-column tile: eight accumulators Y0..Y7 (row r, half h in
// Y(2r+h)) start at +0; every p broadcasts A(r,p) for the four rows,
// multiplies it by the two halves of B(p, j..j+7) and adds the rounded
// product, so each element is the sequential sum over p of gemm's
// reference kernel.
TEXT ·gemm4x8(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ ars+32(FP), R8
	SHLQ $3, R8
	MOVQ aps+40(FP), R9
	SHLQ $3, R9
	MOVQ bps+48(FP), R10
	SHLQ $3, R10
	MOVQ n+56(FP), R11
	SHLQ $3, R11
	MOVQ nt+64(FP), R12
	LEAQ (R8)(R8*2), R13 // byte offset of A's row 3

tile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX  // &A(0,p)
	MOVQ DX, BX  // &B(p,j)
	MOVQ CX, R14 // p countdown

step:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (AX)(R8*1), Y13
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (AX)(R8*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (AX)(R13*1), Y13
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         R9, AX
	ADDQ         R10, BX
	DECQ         R14
	JNZ          step

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R11*1)
	VMOVUPD Y3, 32(DI)(R11*1)
	VMOVUPD Y4, (DI)(R11*2)
	VMOVUPD Y5, 32(DI)(R11*2)
	LEAQ    (DI)(R11*2), AX
	ADDQ    R11, AX
	VMOVUPD Y6, (AX)
	VMOVUPD Y7, 32(AX)
	ADDQ    $64, DI
	ADDQ    $64, DX
	DECQ    R12
	JNZ     tile

	VZEROUPPER
	RET

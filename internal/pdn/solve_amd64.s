// AVX2 kernels for the batched step — the in-place substitutions and
// the step's assemble and scatter passes — plus the CPUID/XGETBV
// feature probe. See solve_amd64.go for the bit-identity contract: per
// lane these perform exactly the Go walks' IEEE operations in the same
// order — vector lanes are independent right-hand sides, VMULPD,
// VADDPD and VSUBPD are exact IEEE-754 double ops, and no FMA
// contraction is used.

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fwdBack8AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64,
//                   uCol, uPtr []int32, invDiag, x []float64, n int)
//
// Row i occupies x[i*8 : i*8+8] = 64 bytes = Y0:Y1. Forward pass walks
// rows 1..n-1 accumulating x[i] -= lVal[k]*x[lCol[k]] over the row's L
// nonzeros; back pass walks rows n-1..0 over the U nonzeros and scales
// by invDiag[i]. Column indices are non-negative int32, so MOVL's
// implicit zero extension is exact.
TEXT ·fwdBack8AVX2(SB), NOSPLIT, $0-200
	MOVQ x_base+168(FP), DI
	MOVQ n+192(FP), SI

	// Forward: L factors.
	MOVQ lVal_base+0(FP), R8
	MOVQ lCol_base+24(FP), R9
	MOVQ lPtr_base+48(FP), R10
	MOVQ $1, BX

fwd8_loop:
	CMPQ BX, SI
	JGE  fwd8_done
	MOVL (R10)(BX*4), CX   // k = lPtr[i]
	MOVL 4(R10)(BX*4), DX  // kEnd = lPtr[i+1]
	CMPQ CX, DX
	JEQ  fwd8_next         // empty row: nothing to accumulate
	MOVQ BX, AX
	SHLQ $6, AX            // i*64
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1

fwd8_inner:
	VBROADCASTSD (R8)(CX*8), Y2
	MOVL (R9)(CX*4), AX    // j = lCol[k]
	SHLQ $6, AX
	VMULPD (DI)(AX*1), Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD 32(DI)(AX*1), Y2, Y3
	VSUBPD Y3, Y1, Y1
	INCQ CX
	CMPQ CX, DX
	JLT  fwd8_inner

	MOVQ BX, AX
	SHLQ $6, AX
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)

fwd8_next:
	INCQ BX
	JMP  fwd8_loop

fwd8_done:
	// Back: U factors, then the reciprocal diagonal scale.
	MOVQ uVal_base+72(FP), R8
	MOVQ uCol_base+96(FP), R9
	MOVQ uPtr_base+120(FP), R10
	MOVQ invDiag_base+144(FP), R11
	MOVQ SI, BX
	DECQ BX                // i = n-1

back8_loop:
	CMPQ BX, $0
	JLT  back8_done
	MOVQ BX, AX
	SHLQ $6, AX
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	MOVL (R10)(BX*4), CX
	MOVL 4(R10)(BX*4), DX
	CMPQ CX, DX
	JEQ  back8_scale

back8_inner:
	VBROADCASTSD (R8)(CX*8), Y2
	MOVL (R9)(CX*4), AX
	SHLQ $6, AX
	VMULPD (DI)(AX*1), Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD 32(DI)(AX*1), Y2, Y3
	VSUBPD Y3, Y1, Y1
	INCQ CX
	CMPQ CX, DX
	JLT  back8_inner

back8_scale:
	VBROADCASTSD (R11)(BX*8), Y2
	VMULPD Y2, Y0, Y0
	VMULPD Y2, Y1, Y1
	MOVQ BX, AX
	SHLQ $6, AX
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	DECQ BX
	JMP  back8_loop

back8_done:
	VZEROUPPER
	RET

// func fwdBack16AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64,
//                    uCol, uPtr []int32, invDiag, x []float64, n int)
//
// As fwdBack8AVX2 with 128-byte rows (Y0:Y3 per row).
TEXT ·fwdBack16AVX2(SB), NOSPLIT, $0-200
	MOVQ x_base+168(FP), DI
	MOVQ n+192(FP), SI

	MOVQ lVal_base+0(FP), R8
	MOVQ lCol_base+24(FP), R9
	MOVQ lPtr_base+48(FP), R10
	MOVQ $1, BX

fwd16_loop:
	CMPQ BX, SI
	JGE  fwd16_done
	MOVL (R10)(BX*4), CX
	MOVL 4(R10)(BX*4), DX
	CMPQ CX, DX
	JEQ  fwd16_next
	MOVQ BX, AX
	SHLQ $7, AX            // i*128
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 64(DI)(AX*1), Y2
	VMOVUPD 96(DI)(AX*1), Y3

fwd16_inner:
	VBROADCASTSD (R8)(CX*8), Y4
	MOVL (R9)(CX*4), AX
	SHLQ $7, AX
	VMULPD (DI)(AX*1), Y4, Y5
	VSUBPD Y5, Y0, Y0
	VMULPD 32(DI)(AX*1), Y4, Y5
	VSUBPD Y5, Y1, Y1
	VMULPD 64(DI)(AX*1), Y4, Y5
	VSUBPD Y5, Y2, Y2
	VMULPD 96(DI)(AX*1), Y4, Y5
	VSUBPD Y5, Y3, Y3
	INCQ CX
	CMPQ CX, DX
	JLT  fwd16_inner

	MOVQ BX, AX
	SHLQ $7, AX
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)

fwd16_next:
	INCQ BX
	JMP  fwd16_loop

fwd16_done:
	MOVQ uVal_base+72(FP), R8
	MOVQ uCol_base+96(FP), R9
	MOVQ uPtr_base+120(FP), R10
	MOVQ invDiag_base+144(FP), R11
	MOVQ SI, BX
	DECQ BX

back16_loop:
	CMPQ BX, $0
	JLT  back16_done
	MOVQ BX, AX
	SHLQ $7, AX
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 64(DI)(AX*1), Y2
	VMOVUPD 96(DI)(AX*1), Y3
	MOVL (R10)(BX*4), CX
	MOVL 4(R10)(BX*4), DX
	CMPQ CX, DX
	JEQ  back16_scale

back16_inner:
	VBROADCASTSD (R8)(CX*8), Y4
	MOVL (R9)(CX*4), AX
	SHLQ $7, AX
	VMULPD (DI)(AX*1), Y4, Y5
	VSUBPD Y5, Y0, Y0
	VMULPD 32(DI)(AX*1), Y4, Y5
	VSUBPD Y5, Y1, Y1
	VMULPD 64(DI)(AX*1), Y4, Y5
	VSUBPD Y5, Y2, Y2
	VMULPD 96(DI)(AX*1), Y4, Y5
	VSUBPD Y5, Y3, Y3
	INCQ CX
	CMPQ CX, DX
	JLT  back16_inner

back16_scale:
	VBROADCASTSD (R11)(BX*8), Y4
	VMULPD Y4, Y0, Y0
	VMULPD Y4, Y1, Y1
	VMULPD Y4, Y2, Y2
	VMULPD Y4, Y3, Y3
	MOVQ BX, AX
	SHLQ $7, AX
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	DECQ BX
	JMP  back16_loop

back16_done:
	VZEROUPPER
	RET

// func stepAssemble8AVX2(rhs, src, pots, geq []float64, upd []int32, nCap int,
//                        rowEnd, terms []int32)
//
// Each lane block is 64 bytes = two 4-lane vectors. The companion
// updates run first — pa - pb, times the broadcast geq, then the
// capacitor or inductor history expression — and the rows after them,
// so every row reads its elements' updated histories. Each row
// accumulates in Y0:Y1 from +0 and is stored once. Offsets are
// non-negative int32, so MOVL's implicit zero extension is exact; a
// subtracted term carries bit 0, which the -1 displacement cancels.
TEXT ·stepAssemble8AVX2(SB), NOSPLIT, $0-176
	MOVQ src_base+24(FP), R8
	MOVQ pots_base+48(FP), R9
	MOVQ rhs_base+0(FP), R10
	MOVQ geq_base+72(FP), R11
	MOVQ upd_base+96(FP), SI
	MOVQ nCap+120(FP), CX
	MOVQ upd_len+104(FP), DX
	SHRQ $2, DX
	SUBQ CX, DX            // inductor updates

s8_cap:                // hist = gv + (gv - hist)
	TESTQ CX, CX
	JEQ   s8_ind
	MOVL 4(SI), BX          // potentials of node a
	MOVL 8(SI), AX          // and of node b
	VMOVUPD 0(R9)(BX*1), Y0
	VMOVUPD 32(R9)(BX*1), Y1
	VSUBPD 0(R9)(AX*1), Y0, Y0   // pa - pb
	VSUBPD 32(R9)(AX*1), Y1, Y1
	MOVL 12(SI), BX
	VBROADCASTSD (R11)(BX*1), Y15
	VMULPD Y0, Y15, Y0             // gv = geq * (pa - pb)
	VMULPD Y1, Y15, Y1
	MOVL 0(SI), AX          // history
	VMOVUPD 0(R8)(AX*1), Y4
	VMOVUPD 32(R8)(AX*1), Y5
	VSUBPD Y4, Y0, Y8          // gv - hist
	VADDPD Y8, Y0, Y8          // gv + (gv - hist)
	VSUBPD Y5, Y1, Y9
	VADDPD Y9, Y1, Y9
	VMOVUPD Y8, 0(R8)(AX*1)
	VMOVUPD Y9, 32(R8)(AX*1)
	ADDQ $16, SI
	DECQ CX
	JMP  s8_cap

s8_ind:                // hist = (gv + hist) + gv
	TESTQ DX, DX
	JEQ   s8_rows
	MOVL 4(SI), BX          // potentials of node a
	MOVL 8(SI), AX          // and of node b
	VMOVUPD 0(R9)(BX*1), Y0
	VMOVUPD 32(R9)(BX*1), Y1
	VSUBPD 0(R9)(AX*1), Y0, Y0   // pa - pb
	VSUBPD 32(R9)(AX*1), Y1, Y1
	MOVL 12(SI), BX
	VBROADCASTSD (R11)(BX*1), Y15
	VMULPD Y0, Y15, Y0             // gv = geq * (pa - pb)
	VMULPD Y1, Y15, Y1
	MOVL 0(SI), AX          // history
	VMOVUPD 0(R8)(AX*1), Y4
	VMOVUPD 32(R8)(AX*1), Y5
	VADDPD Y4, Y0, Y8          // gv + hist
	VADDPD Y0, Y8, Y8          // (gv + hist) + gv
	VADDPD Y5, Y1, Y9
	VADDPD Y1, Y9, Y9
	VMOVUPD Y8, 0(R8)(AX*1)
	VMOVUPD Y9, 32(R8)(AX*1)
	ADDQ $16, SI
	DECQ DX
	JMP  s8_ind

s8_rows:
	MOVQ rowEnd_base+128(FP), SI
	MOVQ rowEnd_len+136(FP), BX
	MOVQ terms_base+152(FP), DI
	XORQ CX, CX            // term index

s8_row:
	TESTQ BX, BX
	JEQ   s8_done
	MOVL (SI), AX          // the row's terms end at index AX
	VXORPD Y0, Y0, Y0      // +0, then added to
	VXORPD Y1, Y1, Y1

s8_term:
	CMPQ CX, AX
	JGE  s8_store
	MOVL (DI)(CX*4), R11
	INCQ CX
	TESTL $1, R11
	JNE  s8_sub
	VADDPD 0(R8)(R11*1), Y0, Y0
	VADDPD 32(R8)(R11*1), Y1, Y1
	JMP  s8_term

s8_sub:
	VSUBPD -1(R8)(R11*1), Y0, Y0
	VSUBPD 31(R8)(R11*1), Y1, Y1
	JMP  s8_term

s8_store:
	VMOVUPD Y0, 0(R10)
	VMOVUPD Y1, 32(R10)
	ADDQ $64, R10
	ADDQ $4, SI
	DECQ BX
	JMP  s8_row

s8_done:
	VZEROUPPER
	RET

// func stepScatter8AVX2(pots, rhs []float64, dst []int32) (nonFinite bool)
//
// Copies rhs row i to pots at dst[i], two vectors per row, and ORs
// v-v of every copied vector into Y8:Y9: all-zero bits unless some v
// was NaN or ±Inf.
TEXT ·stepScatter8AVX2(SB), NOSPLIT, $0-73
	MOVQ pots_base+0(FP), R8
	MOVQ rhs_base+24(FP), DI
	MOVQ dst_base+48(FP), SI
	MOVQ dst_len+56(FP), BX
	XORQ AX, AX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9

x8_row:
	CMPQ AX, BX
	JGE  x8_done
	MOVL (SI)(AX*4), R10
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD Y0, 0(R8)(R10*1)
	VMOVUPD Y1, 32(R8)(R10*1)
	VSUBPD Y0, Y0, Y4
	VSUBPD Y1, Y1, Y5
	VORPD Y4, Y8, Y8
	VORPD Y5, Y9, Y9
	ADDQ $64, DI
	INCQ AX
	JMP  x8_row

x8_done:
	VORPD Y9, Y8, Y8
	VPTEST Y8, Y8
	SETNE nonFinite+72(FP)
	VZEROUPPER
	RET

// func stepAssemble16AVX2(rhs, src, pots, geq []float64, upd []int32, nCap int,
//                        rowEnd, terms []int32)
//
// As stepAssemble8AVX2 with 128-byte lane blocks (four vectors).
TEXT ·stepAssemble16AVX2(SB), NOSPLIT, $0-176
	MOVQ src_base+24(FP), R8
	MOVQ pots_base+48(FP), R9
	MOVQ rhs_base+0(FP), R10
	MOVQ geq_base+72(FP), R11
	MOVQ upd_base+96(FP), SI
	MOVQ nCap+120(FP), CX
	MOVQ upd_len+104(FP), DX
	SHRQ $2, DX
	SUBQ CX, DX            // inductor updates

s16_cap:                // hist = gv + (gv - hist)
	TESTQ CX, CX
	JEQ   s16_ind
	MOVL 4(SI), BX          // potentials of node a
	MOVL 8(SI), AX          // and of node b
	VMOVUPD 0(R9)(BX*1), Y0
	VMOVUPD 32(R9)(BX*1), Y1
	VMOVUPD 64(R9)(BX*1), Y2
	VMOVUPD 96(R9)(BX*1), Y3
	VSUBPD 0(R9)(AX*1), Y0, Y0   // pa - pb
	VSUBPD 32(R9)(AX*1), Y1, Y1
	VSUBPD 64(R9)(AX*1), Y2, Y2
	VSUBPD 96(R9)(AX*1), Y3, Y3
	MOVL 12(SI), BX
	VBROADCASTSD (R11)(BX*1), Y15
	VMULPD Y0, Y15, Y0             // gv = geq * (pa - pb)
	VMULPD Y1, Y15, Y1
	VMULPD Y2, Y15, Y2
	VMULPD Y3, Y15, Y3
	MOVL 0(SI), AX          // history
	VMOVUPD 0(R8)(AX*1), Y4
	VMOVUPD 32(R8)(AX*1), Y5
	VMOVUPD 64(R8)(AX*1), Y6
	VMOVUPD 96(R8)(AX*1), Y7
	VSUBPD Y4, Y0, Y8          // gv - hist
	VADDPD Y8, Y0, Y8          // gv + (gv - hist)
	VSUBPD Y5, Y1, Y9
	VADDPD Y9, Y1, Y9
	VSUBPD Y6, Y2, Y10
	VADDPD Y10, Y2, Y10
	VSUBPD Y7, Y3, Y11
	VADDPD Y11, Y3, Y11
	VMOVUPD Y8, 0(R8)(AX*1)
	VMOVUPD Y9, 32(R8)(AX*1)
	VMOVUPD Y10, 64(R8)(AX*1)
	VMOVUPD Y11, 96(R8)(AX*1)
	ADDQ $16, SI
	DECQ CX
	JMP  s16_cap

s16_ind:                // hist = (gv + hist) + gv
	TESTQ DX, DX
	JEQ   s16_rows
	MOVL 4(SI), BX          // potentials of node a
	MOVL 8(SI), AX          // and of node b
	VMOVUPD 0(R9)(BX*1), Y0
	VMOVUPD 32(R9)(BX*1), Y1
	VMOVUPD 64(R9)(BX*1), Y2
	VMOVUPD 96(R9)(BX*1), Y3
	VSUBPD 0(R9)(AX*1), Y0, Y0   // pa - pb
	VSUBPD 32(R9)(AX*1), Y1, Y1
	VSUBPD 64(R9)(AX*1), Y2, Y2
	VSUBPD 96(R9)(AX*1), Y3, Y3
	MOVL 12(SI), BX
	VBROADCASTSD (R11)(BX*1), Y15
	VMULPD Y0, Y15, Y0             // gv = geq * (pa - pb)
	VMULPD Y1, Y15, Y1
	VMULPD Y2, Y15, Y2
	VMULPD Y3, Y15, Y3
	MOVL 0(SI), AX          // history
	VMOVUPD 0(R8)(AX*1), Y4
	VMOVUPD 32(R8)(AX*1), Y5
	VMOVUPD 64(R8)(AX*1), Y6
	VMOVUPD 96(R8)(AX*1), Y7
	VADDPD Y4, Y0, Y8          // gv + hist
	VADDPD Y0, Y8, Y8          // (gv + hist) + gv
	VADDPD Y5, Y1, Y9
	VADDPD Y1, Y9, Y9
	VADDPD Y6, Y2, Y10
	VADDPD Y2, Y10, Y10
	VADDPD Y7, Y3, Y11
	VADDPD Y3, Y11, Y11
	VMOVUPD Y8, 0(R8)(AX*1)
	VMOVUPD Y9, 32(R8)(AX*1)
	VMOVUPD Y10, 64(R8)(AX*1)
	VMOVUPD Y11, 96(R8)(AX*1)
	ADDQ $16, SI
	DECQ DX
	JMP  s16_ind

s16_rows:
	MOVQ rowEnd_base+128(FP), SI
	MOVQ rowEnd_len+136(FP), BX
	MOVQ terms_base+152(FP), DI
	XORQ CX, CX            // term index

s16_row:
	TESTQ BX, BX
	JEQ   s16_done
	MOVL (SI), AX          // the row's terms end at index AX
	VXORPD Y0, Y0, Y0      // +0, then added to
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

s16_term:
	CMPQ CX, AX
	JGE  s16_store
	MOVL (DI)(CX*4), R11
	INCQ CX
	TESTL $1, R11
	JNE  s16_sub
	VADDPD 0(R8)(R11*1), Y0, Y0
	VADDPD 32(R8)(R11*1), Y1, Y1
	VADDPD 64(R8)(R11*1), Y2, Y2
	VADDPD 96(R8)(R11*1), Y3, Y3
	JMP  s16_term

s16_sub:
	VSUBPD -1(R8)(R11*1), Y0, Y0
	VSUBPD 31(R8)(R11*1), Y1, Y1
	VSUBPD 63(R8)(R11*1), Y2, Y2
	VSUBPD 95(R8)(R11*1), Y3, Y3
	JMP  s16_term

s16_store:
	VMOVUPD Y0, 0(R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	ADDQ $128, R10
	ADDQ $4, SI
	DECQ BX
	JMP  s16_row

s16_done:
	VZEROUPPER
	RET

// func stepScatter16AVX2(pots, rhs []float64, dst []int32) (nonFinite bool)
//
// As stepScatter8AVX2 with 128-byte rows (four vectors).
TEXT ·stepScatter16AVX2(SB), NOSPLIT, $0-73
	MOVQ pots_base+0(FP), R8
	MOVQ rhs_base+24(FP), DI
	MOVQ dst_base+48(FP), SI
	MOVQ dst_len+56(FP), BX
	XORQ AX, AX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

x16_row:
	CMPQ AX, BX
	JGE  x16_done
	MOVL (SI)(AX*4), R10
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD Y0, 0(R8)(R10*1)
	VMOVUPD Y1, 32(R8)(R10*1)
	VMOVUPD Y2, 64(R8)(R10*1)
	VMOVUPD Y3, 96(R8)(R10*1)
	VSUBPD Y0, Y0, Y4
	VSUBPD Y1, Y1, Y5
	VSUBPD Y2, Y2, Y6
	VSUBPD Y3, Y3, Y7
	VORPD Y4, Y8, Y8
	VORPD Y5, Y9, Y9
	VORPD Y6, Y10, Y10
	VORPD Y7, Y11, Y11
	ADDQ $128, DI
	INCQ AX
	JMP  x16_row

x16_done:
	VORPD Y9, Y8, Y8
	VORPD Y10, Y8, Y8
	VORPD Y11, Y8, Y8
	VPTEST Y8, Y8
	SETNE nonFinite+72(FP)
	VZEROUPPER
	RET

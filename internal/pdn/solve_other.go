//go:build !amd64

package pdn

// Non-amd64 hosts always take the pure-Go substitution and step walks.
var useAVX2 = false

func fwdBack8AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int) {
	panic("pdn: fwdBack8AVX2 without AVX2")
}

func fwdBack16AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int) {
	panic("pdn: fwdBack16AVX2 without AVX2")
}

func stepAssemble8AVX2(rhs, src, pots, geq []float64, upd []int32, nCap int, rowEnd, terms []int32) {
	panic("pdn: stepAssemble8AVX2 without AVX2")
}

func stepScatter8AVX2(pots, rhs []float64, dst []int32) bool {
	panic("pdn: stepScatter8AVX2 without AVX2")
}

func stepAssemble16AVX2(rhs, src, pots, geq []float64, upd []int32, nCap int, rowEnd, terms []int32) {
	panic("pdn: stepAssemble16AVX2 without AVX2")
}

func stepScatter16AVX2(pots, rhs []float64, dst []int32) bool {
	panic("pdn: stepScatter16AVX2 without AVX2")
}

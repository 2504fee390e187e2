package uplink

import (
	"math/cmplx"

	"ltephy/internal/phy/linalg"
	"ltephy/internal/phy/workspace"
)

// Interference rejection combining: instead of assuming white noise, the
// receiver estimates the spatial covariance of whatever the channel
// estimate cannot explain — thermal noise plus neighbouring cells'
// uplink traffic — from the reference-symbol residuals, and whitens it
// into the combiner. Classic eNodeB practice; an extension over the
// paper's pipeline (DESIGN.md §5).

// estimateCovariance computes the band-averaged A x A residual covariance
//
//	R = mean_k e(k) e(k)^H,  e(k) = y_ref(k) - H_est(k) r(k)
//
// over both slots into r, diagonally loaded with the working noise
// variance so R stays invertible even in interference-free conditions.
// r must arrive zeroed (arena grabs and fresh matrices both are); e is
// an antennas-sized scratch vector.
func (j *UserJob) estimateCovariance(r *linalg.Matrix, e []complex128) {
	ant := j.Cfg.Antennas
	count := 0
	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hs := j.hest[slot]
		for k := 0; k < j.n; k++ {
			for a := 0; a < ant; a++ {
				expected := complex(0, 0)
				for l := 0; l < j.layers; l++ {
					expected += hs[(a*j.layers+l)*j.n+k] * j.layerRef[l][k]
				}
				e[a] = j.U.RefRx[slot][a][k] - expected
			}
			for a := 0; a < ant; a++ {
				for b := 0; b < ant; b++ {
					r.Data[a*ant+b] += e[a] * cmplx.Conj(e[b])
				}
			}
			count++
		}
	}
	scale := complex(1/float64(count), 0)
	for i := range r.Data {
		r.Data[i] *= scale
	}
	// Diagonal loading: never trust the residual completely.
	linalg.AddDiag(r, complex(j.nv*0.1+1e-9, 0))
}

// computeIRCWeights fills the weight buffers with the whitened MMSE
// solution W = (H^H R^{-1} H + I)^{-1} H^H R^{-1}. All working matrices
// come from the arena (heap when nil) and are released before returning.
func (j *UserJob) computeIRCWeights(a *workspace.Arena) {
	ant := j.Cfg.Antennas
	m := a.Mark()
	rcov := linalg.NewMatrixIn(a, ant, ant)
	j.estimateCovariance(&rcov, a.Complex(ant))
	rinv := linalg.NewMatrixIn(a, ant, ant)
	// Elimination scratch shared by both inversions (ant >= layers).
	elim := a.Complex(ant * ant)
	if err := linalg.InvertIntoScratch(&rinv, rcov, elim); err != nil {
		// Degenerate covariance (all-zero input): fall back to identity
		// whitening, i.e. plain MMSE behaviour.
		for i := range rinv.Data {
			rinv.Data[i] = 0
		}
		for ai := 0; ai < ant; ai++ {
			rinv.Set(ai, ai, 1)
		}
	}

	h := linalg.NewMatrixIn(a, ant, j.layers)
	hh := linalg.NewMatrixIn(a, j.layers, ant)
	b := linalg.NewMatrixIn(a, ant, j.layers)
	g := linalg.NewMatrixIn(a, j.layers, j.layers)
	ginv := linalg.NewMatrixIn(a, j.layers, j.layers)
	bh := linalg.NewMatrixIn(a, j.layers, ant)
	w := linalg.NewMatrixIn(a, j.layers, ant)

	for slot := 0; slot < SlotsPerSubframe; slot++ {
		hs := j.hest[slot]
		out := j.weights[slot]
		for k := 0; k < j.n; k++ {
			for ai := 0; ai < ant; ai++ {
				for l := 0; l < j.layers; l++ {
					h.Set(ai, l, hs[(ai*j.layers+l)*j.n+k])
				}
			}
			linalg.MulInto(&b, rinv, h) // R^{-1} H
			h.ConjTransposeInto(&hh)
			linalg.MulInto(&g, hh, b) // H^H R^{-1} H
			linalg.AddDiag(&g, 1)
			if err := linalg.InvertIntoScratch(&ginv, g, elim); err != nil {
				for i := range w.Data {
					w.Data[i] = 0
				}
			} else {
				b.ConjTransposeInto(&bh) // (R^{-1} H)^H = H^H R^{-1} (R Hermitian)
				linalg.MulInto(&w, ginv, bh)
			}
			copy(out[(k*j.layers)*ant:(k*j.layers+j.layers)*ant], w.Data)
		}
	}
	a.Release(m)
}

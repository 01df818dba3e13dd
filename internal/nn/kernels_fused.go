//go:build fma && (amd64.v3 || arm64)

package nn

import "math"

// FMA micro-kernels for the fast tier. Each math.FMA call compiles to one
// fused multiply-add instruction on this file's targets: arm64's base ISA
// has FMADD, and amd64.v3 (GOAMD64=v3) guarantees the FMA3 extension so
// the compiler emits VFMADD unconditionally. The target gate matters: at
// the default GOAMD64=v1 every math.FMA goes through a per-call CPU
// feature test, which is slower than the scalar mul+add it replaces — so
// plain `-tags fma` builds on a v1/v2 amd64 target get the scalar kernel
// aliases from kernels_fused_off.go instead, and CI/Makefile fast-tier
// targets set GOAMD64=v3 explicitly.
//
// math.FMA is correctly rounded, so fast-tier results are identical across
// amd64 and arm64 (and the softfloat fallback): the tiers differ, the
// platforms within a tier do not.
//
// The shapes mirror engine.go's scalar kernels deliberately — gemmNT's
// 4×2 register block and gemmNN/accumGrad's sample-pair structure with
// exact-zero skipping survived head-to-head measurement against wider FMA
// blockings (an 8×2 gemmNT tile needs 16 live accumulators, which spills
// the 16-register SSE/NEON file and loses the win; dense kernels that
// ignore ReLU-dead zeros lose to the skipping scalar ones). Only the inner
// arithmetic changes: two rounding steps per multiply-add become one.

// fusedKernels reports whether this build really fuses multiply-adds;
// benchmarks and the speedup floor test skip when the fallback aliases are
// in effect.
const fusedKernels = true

// fastGemmNT is gemmNT's 4×2 register block with FMA accumulation.
func fastGemmNT(dst, x, w, bias []float64, n, m, k int, relu bool) {
	s := 0
	for ; s+4 <= n; s += 4 {
		x0 := x[(s+0)*k : (s+1)*k]
		x1 := x[(s+1)*k : (s+2)*k]
		x2 := x[(s+2)*k : (s+3)*k]
		x3 := x[(s+3)*k : (s+4)*k]
		d0 := dst[(s+0)*m : (s+1)*m]
		d1 := dst[(s+1)*m : (s+2)*m]
		d2 := dst[(s+2)*m : (s+3)*m]
		d3 := dst[(s+3)*m : (s+4)*m]
		o := 0
		for ; o+2 <= m; o += 2 {
			wa := w[(o+0)*k : (o+1)*k]
			wb := w[(o+1)*k : (o+1)*k+k][:len(wa)]
			y0, y1, y2, y3 := x0[:len(wa)], x1[:len(wa)], x2[:len(wa)], x3[:len(wa)]
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			for i, wav := range wa {
				wbv := wb[i]
				v0, v1, v2, v3 := y0[i], y1[i], y2[i], y3[i]
				a0 = math.FMA(v0, wav, a0)
				a1 = math.FMA(v1, wav, a1)
				a2 = math.FMA(v2, wav, a2)
				a3 = math.FMA(v3, wav, a3)
				b0 = math.FMA(v0, wbv, b0)
				b1 = math.FMA(v1, wbv, b1)
				b2 = math.FMA(v2, wbv, b2)
				b3 = math.FMA(v3, wbv, b3)
			}
			ba, bb := bias[o], bias[o+1]
			a0 += ba
			a1 += ba
			a2 += ba
			a3 += ba
			b0 += bb
			b1 += bb
			b2 += bb
			b3 += bb
			if relu {
				// Builtin max compiles branchless here; relu0's branch
				// mispredicts on ~half the lanes at training-time activation
				// sparsity and measured slower.
				a0, a1, a2, a3 = max(a0, 0), max(a1, 0), max(a2, 0), max(a3, 0)
				b0, b1, b2, b3 = max(b0, 0), max(b1, 0), max(b2, 0), max(b3, 0)
			}
			d0[o], d1[o], d2[o], d3[o] = a0, a1, a2, a3
			d0[o+1], d1[o+1], d2[o+1], d3[o+1] = b0, b1, b2, b3
		}
		for ; o < m; o++ {
			wo := w[o*k : o*k+k]
			var c0, c1, c2, c3 float64
			for i, wv := range wo {
				c0 = math.FMA(x0[i], wv, c0)
				c1 = math.FMA(x1[i], wv, c1)
				c2 = math.FMA(x2[i], wv, c2)
				c3 = math.FMA(x3[i], wv, c3)
			}
			bv := bias[o]
			c0 += bv
			c1 += bv
			c2 += bv
			c3 += bv
			if relu {
				c0, c1, c2, c3 = max(c0, 0), max(c1, 0), max(c2, 0), max(c3, 0)
			}
			d0[o], d1[o], d2[o], d3[o] = c0, c1, c2, c3
		}
	}
	// Remainder rows: gemmNT's one-sample kernel with fused accumulation —
	// the block kernels' order exactly, so a row's outputs do not depend on
	// its position in the batch or on the batch size.
	for ; s < n; s++ {
		xs := x[s*k : (s+1)*k]
		ds := dst[s*m : (s+1)*m]
		o := 0
		for ; o+4 <= m; o += 4 {
			w0 := w[(o+0)*k : (o+1)*k]
			w1 := w[(o+1)*k : (o+1)*k+k][:len(w0)]
			w2 := w[(o+2)*k : (o+2)*k+k][:len(w0)]
			w3 := w[(o+3)*k : (o+3)*k+k][:len(w0)]
			y := xs[:len(w0)]
			var c0, c1, c2, c3 float64
			for i, wv := range w0 {
				v := y[i]
				c0 = math.FMA(v, wv, c0)
				c1 = math.FMA(v, w1[i], c1)
				c2 = math.FMA(v, w2[i], c2)
				c3 = math.FMA(v, w3[i], c3)
			}
			c0 += bias[o]
			c1 += bias[o+1]
			c2 += bias[o+2]
			c3 += bias[o+3]
			if relu {
				c0, c1, c2, c3 = max(c0, 0), max(c1, 0), max(c2, 0), max(c3, 0)
			}
			ds[o], ds[o+1], ds[o+2], ds[o+3] = c0, c1, c2, c3
		}
		for ; o < m; o++ {
			var c float64
			for i, wv := range w[o*k : o*k+k] {
				c = math.FMA(xs[i], wv, c)
			}
			c += bias[o]
			if relu {
				c = max(c, 0)
			}
			ds[o] = c
		}
	}
}

// nzMax bounds the stack-allocated live-index buffer the compacted
// backward kernels use; larger layer/batch extents fall back to the
// pair-structured loops. 512 covers every shape the grid search explores.
const nzMax = 512

// nzBit reports v != ±0 as an integer without a branch. The sign bit is
// shifted off first because the ReLU mask produces -0.0 for negated dead
// units (negative × 0), which must still count as zero. The compaction
// scans run this over every delta element; the equivalent `if v != 0`
// branch is ~50/50 at training-time sparsity and its mispredicts measured
// ~3 ms/epoch on the paper-final shape.
func nzBit(v float64) int {
	b := math.Float64bits(v) << 1
	return int((b | -b) >> 63)
}

// fastGemmNN overwrites dst with delta·w (delta: n×m, w: m×k, dst: n×k).
// Per sample it first compacts the indices of nonzero deltas — ReLU-dead
// units are exact zeros and typically half the entries — then drains the
// live list four weight-rows at a time with fused quad kernels. Compaction
// keeps the scalar tier's exact skip granularity (a dense quad kernel
// loses it and measured slower than the skipping scalar pairs) while the
// quads amortize each destination load/store over four fused
// multiply-adds instead of two.
func fastGemmNN(dst, delta, w []float64, n, m, k int) {
	if m < 2 {
		clear(dst[:n*k])
		for s := 0; s < n; s++ {
			if v := delta[s*m]; v != 0 {
				fastAxpy(dst[s*k:(s+1)*k], w[:k], v)
			}
		}
		return
	}
	if m > nzMax {
		fastGemmNNPairs(dst, delta, w, n, m, k)
		return
	}
	var idx [nzMax]int
	var cf [nzMax]float64
	for s := 0; s < n; s++ {
		gs := delta[s*m : (s+1)*m]
		ds := dst[s*k : (s+1)*k]
		// Branchless compaction: always store, advance the cursor only on a
		// live value (nzBit). At training-time sparsity the liveness branch
		// is ~50/50 and its mispredicts cost more than the dead stores,
		// which the next live element simply overwrites.
		cnt := 0
		for o, v := range gs {
			idx[cnt] = o * k
			cf[cnt] = v
			cnt += nzBit(v)
		}
		if cnt == 0 {
			clear(ds)
			continue
		}
		p := 0
		if cnt >= 4 {
			fastSet4(ds, w[idx[0]:idx[0]+k], w[idx[1]:idx[1]+k], w[idx[2]:idx[2]+k], w[idx[3]:idx[3]+k],
				cf[0], cf[1], cf[2], cf[3])
			for p = 4; p+4 <= cnt; p += 4 {
				fastAxpy4(ds, w[idx[p]:idx[p]+k], w[idx[p+1]:idx[p+1]+k], w[idx[p+2]:idx[p+2]+k], w[idx[p+3]:idx[p+3]+k],
					cf[p], cf[p+1], cf[p+2], cf[p+3])
			}
		} else if cnt >= 2 {
			fastSet2(ds, w[idx[0]:idx[0]+k], w[idx[1]:idx[1]+k], cf[0], cf[1])
			p = 2
		} else {
			fastSet2(ds, w[idx[0]:idx[0]+k], w[idx[0]:idx[0]+k], cf[0], 0)
			p = 1
		}
		switch cnt - p {
		case 1:
			fastAxpy(ds, w[idx[p]:idx[p]+k], cf[p])
		case 2:
			fastAxpy2(ds, w[idx[p]:idx[p]+k], w[idx[p+1]:idx[p+1]+k], cf[p], cf[p+1])
		case 3:
			fastAxpy2(ds, w[idx[p]:idx[p]+k], w[idx[p+1]:idx[p+1]+k], cf[p], cf[p+1])
			fastAxpy(ds, w[idx[p+2]:idx[p+2]+k], cf[p+2])
		}
	}
}

// fastGemmNNPairs is the pair-structured FMA fallback mirroring the scalar
// gemmNN, used when the layer width exceeds the compaction buffer.
func fastGemmNNPairs(dst, delta, w []float64, n, m, k int) {
	s := 0
	for ; s+4 <= n; s += 4 {
		d0 := dst[(s+0)*k : (s+1)*k]
		d1 := dst[(s+1)*k : (s+2)*k]
		d2 := dst[(s+2)*k : (s+3)*k]
		d3 := dst[(s+3)*k : (s+4)*k]
		g0 := delta[(s+0)*m : (s+1)*m]
		g1 := delta[(s+1)*m : (s+2)*m]
		g2 := delta[(s+2)*m : (s+3)*m]
		g3 := delta[(s+3)*m : (s+4)*m]
		wa := w[:k]
		wb := w[k : 2*k]
		fastSet2(d0, wa, wb, g0[0], g0[1])
		fastSet2(d1, wa, wb, g1[0], g1[1])
		fastSet2(d2, wa, wb, g2[0], g2[1])
		fastSet2(d3, wa, wb, g3[0], g3[1])
		o := 2
		for ; o+2 <= m; o += 2 {
			wa := w[(o+0)*k : (o+1)*k]
			wb := w[(o+1)*k : (o+1)*k+k]
			fastAddPair(d0, wa, wb, g0[o], g0[o+1])
			fastAddPair(d1, wa, wb, g1[o], g1[o+1])
			fastAddPair(d2, wa, wb, g2[o], g2[o+1])
			fastAddPair(d3, wa, wb, g3[o], g3[o+1])
		}
		for ; o < m; o++ {
			wo := w[o*k : o*k+k]
			if v := g0[o]; v != 0 {
				fastAxpy(d0, wo, v)
			}
			if v := g1[o]; v != 0 {
				fastAxpy(d1, wo, v)
			}
			if v := g2[o]; v != 0 {
				fastAxpy(d2, wo, v)
			}
			if v := g3[o]; v != 0 {
				fastAxpy(d3, wo, v)
			}
		}
	}
	for ; s < n; s++ {
		ds := dst[s*k : (s+1)*k]
		gs := delta[s*m : (s+1)*m]
		fastSet2(ds, w[:k], w[k:2*k], gs[0], gs[1])
		o := 2
		for ; o+2 <= m; o += 2 {
			fastAddPair(ds, w[o*k:(o+1)*k], w[(o+1)*k:(o+1)*k+k], gs[o], gs[o+1])
		}
		for ; o < m; o++ {
			if v := gs[o]; v != 0 {
				fastAxpy(ds, w[o*k:o*k+k], v)
			}
		}
	}
}

// fastAccumGrad computes gradW = deltaᵀ·x and gradB = delta's column sums
// like accumGrad, but with the loop order inverted: outputs outermost,
// compacted live samples innermost. Each gradient row then stays in L1
// across all its sample contributions instead of the whole m×k accumulator
// streaming through cache once per sample pair — on the paper-final
// 256×256 layers that swaps ~8 MB of per-batch read+write gradient traffic
// for L2-resident reads of the much smaller input matrix. The live
// (row-offset, delta) pairs for every output are bucket-filled in two
// sequential passes over delta up front — a per-output strided scan
// measured ~3× the cost of the whole compaction this way. nzIdx and nzCf
// are caller scratch with capacity > n·m — one extra trash slot for the
// branchless fill (per worker, from TrainScratch); when too small, or when
// m exceeds the on-stack cursor bound, the kernel falls back to the
// sample-pair loop. The per-row accumulation order
// differs from the scalar kernel's, which is exactly the reassociation
// freedom the fast tier's tolerance oracle grants.
func fastAccumGrad(gradW, gradB, delta, x []float64, n, m, k int, nzIdx []int, nzCf []float64) {
	if m > nzMax || len(nzIdx) <= n*m || len(nzCf) <= n*m {
		fastAccumGradPairs(gradW, gradB, delta, x, n, m, k)
		return
	}
	// Both scans are branchless (see nzBit): the count pass accumulates
	// liveness bits, the fill pass always stores and advances the bucket
	// cursor only on live values. A dead store after bucket o is already
	// full would land on bucket o+1's first entry, so it is steered to a
	// trash slot past the live region instead — hence the caller provides
	// n·m+1 capacity.
	var cnt, pos [nzMax]int
	for s := 0; s < n; s++ {
		gs := delta[s*m : (s+1)*m]
		for o, v := range gs {
			cnt[o] += nzBit(v)
		}
	}
	sum := 0
	for o := 0; o < m; o++ {
		pos[o] = sum
		sum += cnt[o]
	}
	trash := n * m
	for s := 0; s < n; s++ {
		gs := delta[s*m : (s+1)*m]
		sk := s * k
		for o, v := range gs {
			nz := nzBit(v)
			p := pos[o]
			q := p + (trash-p)&(nz-1)
			nzIdx[q] = sk
			nzCf[q] = v
			pos[o] = p + nz
		}
	}
	for o := 0; o < m; o++ {
		row := gradW[o*k : o*k+k]
		c := cnt[o]
		if c == 0 {
			gradB[o] = 0
			clear(row)
			continue
		}
		end := pos[o]
		ids := nzIdx[end-c : end]
		cfs := nzCf[end-c : end]
		// Bias gradient in fill (= sample) order, matching the scalar
		// kernel's per-output summation sequence.
		var bsum float64
		for _, v := range cfs {
			bsum += v
		}
		gradB[o] = bsum
		p := 0
		if c >= 4 {
			fastSet4(row, x[ids[0]:ids[0]+k], x[ids[1]:ids[1]+k], x[ids[2]:ids[2]+k], x[ids[3]:ids[3]+k],
				cfs[0], cfs[1], cfs[2], cfs[3])
			for p = 4; p+4 <= c; p += 4 {
				fastAxpy4(row, x[ids[p]:ids[p]+k], x[ids[p+1]:ids[p+1]+k], x[ids[p+2]:ids[p+2]+k], x[ids[p+3]:ids[p+3]+k],
					cfs[p], cfs[p+1], cfs[p+2], cfs[p+3])
			}
		} else if c >= 2 {
			fastSet2(row, x[ids[0]:ids[0]+k], x[ids[1]:ids[1]+k], cfs[0], cfs[1])
			p = 2
		} else {
			fastSet2(row, x[ids[0]:ids[0]+k], x[ids[0]:ids[0]+k], cfs[0], 0)
			p = 1
		}
		switch c - p {
		case 1:
			fastAxpy(row, x[ids[p]:ids[p]+k], cfs[p])
		case 2:
			fastAxpy2(row, x[ids[p]:ids[p]+k], x[ids[p+1]:ids[p+1]+k], cfs[p], cfs[p+1])
		case 3:
			fastAxpy2(row, x[ids[p]:ids[p]+k], x[ids[p+1]:ids[p+1]+k], cfs[p], cfs[p+1])
			fastAxpy(row, x[ids[p+2]:ids[p+2]+k], cfs[p+2])
		}
	}
}

// fastAccumGradPairs is the sample-pair FMA fallback mirroring the scalar
// accumGrad, used when the batch extent exceeds the compaction buffer.
func fastAccumGradPairs(gradW, gradB, delta, x []float64, n, m, k int) {
	s := 0
	if n >= 2 {
		x0 := x[:k]
		x1 := x[k : 2*k]
		g0 := delta[:m]
		g1 := delta[m : 2*m]
		for o := 0; o < m; o++ {
			dv0, dv1 := g0[o], g1[o]
			gradB[o] = dv0 + dv1
			fastSet2(gradW[o*k:o*k+k], x0, x1, dv0, dv1)
		}
		s = 2
	} else {
		clear(gradW[:m*k])
		clear(gradB[:m])
	}
	for ; s+2 <= n; s += 2 {
		x0 := x[s*k : (s+1)*k]
		x1 := x[(s+1)*k : (s+2)*k]
		g0 := delta[s*m : (s+1)*m]
		g1 := delta[(s+1)*m : (s+2)*m]
		for o := 0; o < m; o++ {
			dv0, dv1 := g0[o], g1[o]
			if dv0 == 0 && dv1 == 0 {
				continue
			}
			gradB[o] += dv0 + dv1
			fastAddPair(gradW[o*k:o*k+k], x0, x1, dv0, dv1)
		}
	}
	for ; s < n; s++ {
		xs := x[s*k : (s+1)*k]
		ds := delta[s*m : (s+1)*m]
		for o, dv := range ds {
			if dv == 0 {
				continue
			}
			fastAxpy(gradW[o*k:o*k+k], xs, dv)
			gradB[o] += dv
		}
	}
}

// fastSet2 overwrites dst with va·a + vb·b, the second product fused onto
// the first.
func fastSet2(dst, a, b []float64, va, vb float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = math.FMA(vb, b[i], va*a[i])
		dst[i+1] = math.FMA(vb, b[i+1], va*a[i+1])
		dst[i+2] = math.FMA(vb, b[i+2], va*a[i+2])
		dst[i+3] = math.FMA(vb, b[i+3], va*a[i+3])
	}
	for i := n; i < len(dst); i++ {
		dst[i] = math.FMA(vb, b[i], va*a[i])
	}
}

// fastAddPair is addPair over the FMA primitives: exact-zero coefficients
// still skip work (adding 0·row is exact, so skipping never changes the
// result — the fast tier keeps the scalar tier's sparsity win).
func fastAddPair(dst, a, b []float64, va, vb float64) {
	switch {
	case va != 0 && vb != 0:
		fastAxpy2(dst, a, b, va, vb)
	case va != 0:
		fastAxpy(dst, a, va)
	case vb != 0:
		fastAxpy(dst, b, vb)
	}
}

// fastAxpy2 computes dst += v0·s0 + v1·s1 as two chained fused adds.
func fastAxpy2(dst, s0, s1 []float64, v0, v1 float64) {
	s0 = s0[:len(dst)]
	s1 = s1[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = math.FMA(v1, s1[i], math.FMA(v0, s0[i], dst[i]))
		dst[i+1] = math.FMA(v1, s1[i+1], math.FMA(v0, s0[i+1], dst[i+1]))
		dst[i+2] = math.FMA(v1, s1[i+2], math.FMA(v0, s0[i+2], dst[i+2]))
		dst[i+3] = math.FMA(v1, s1[i+3], math.FMA(v0, s0[i+3], dst[i+3]))
	}
	for i := n; i < len(dst); i++ {
		dst[i] = math.FMA(v1, s1[i], math.FMA(v0, s0[i], dst[i]))
	}
}

// fastSet4 overwrites dst with va·a + vb·b + vc·c + vd·d, three fused
// adds chained onto one multiply per element.
func fastSet4(dst, a, b, c, d []float64, va, vb, vc, vd float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	c = c[:len(dst)]
	d = d[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = math.FMA(vd, d[i], math.FMA(vc, c[i], math.FMA(vb, b[i], va*a[i])))
		dst[i+1] = math.FMA(vd, d[i+1], math.FMA(vc, c[i+1], math.FMA(vb, b[i+1], va*a[i+1])))
		dst[i+2] = math.FMA(vd, d[i+2], math.FMA(vc, c[i+2], math.FMA(vb, b[i+2], va*a[i+2])))
		dst[i+3] = math.FMA(vd, d[i+3], math.FMA(vc, c[i+3], math.FMA(vb, b[i+3], va*a[i+3])))
	}
	for i := n; i < len(dst); i++ {
		dst[i] = math.FMA(vd, d[i], math.FMA(vc, c[i], math.FMA(vb, b[i], va*a[i])))
	}
}

// fastAxpy4 computes dst += v0·s0 + v1·s1 + v2·s2 + v3·s3 — the quad
// kernel the compacted backward drains live rows through: four fused
// multiply-adds amortize each destination load/store, where the plain
// axpy pays the same memory traffic for one.
func fastAxpy4(dst, s0, s1, s2, s3 []float64, v0, v1, v2, v3 float64) {
	s0 = s0[:len(dst)]
	s1 = s1[:len(dst)]
	s2 = s2[:len(dst)]
	s3 = s3[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = math.FMA(v3, s3[i], math.FMA(v2, s2[i], math.FMA(v1, s1[i], math.FMA(v0, s0[i], dst[i]))))
		dst[i+1] = math.FMA(v3, s3[i+1], math.FMA(v2, s2[i+1], math.FMA(v1, s1[i+1], math.FMA(v0, s0[i+1], dst[i+1]))))
		dst[i+2] = math.FMA(v3, s3[i+2], math.FMA(v2, s2[i+2], math.FMA(v1, s1[i+2], math.FMA(v0, s0[i+2], dst[i+2]))))
		dst[i+3] = math.FMA(v3, s3[i+3], math.FMA(v2, s2[i+3], math.FMA(v1, s1[i+3], math.FMA(v0, s0[i+3], dst[i+3]))))
	}
	for i := n; i < len(dst); i++ {
		dst[i] = math.FMA(v3, s3[i], math.FMA(v2, s2[i], math.FMA(v1, s1[i], math.FMA(v0, s0[i], dst[i]))))
	}
}

// fastAxpy computes dst += v·src with fused adds.
func fastAxpy(dst, src []float64, v float64) {
	src = src[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = math.FMA(v, src[i], dst[i])
		dst[i+1] = math.FMA(v, src[i+1], dst[i+1])
		dst[i+2] = math.FMA(v, src[i+2], dst[i+2])
		dst[i+3] = math.FMA(v, src[i+3], dst[i+3])
	}
	for i := n; i < len(dst); i++ {
		dst[i] = math.FMA(v, src[i], dst[i])
	}
}

// fastApplyGradients is applyGradients with the per-weight arithmetic
// fused: the L2 fold, moment updates, and variance update each save a
// rounding step. sqrt and the division stay exact — approximate
// reciprocal-sqrt tricks were measured and rejected as not worth their
// accuracy safeguards.
func (n *Network) fastApplyGradients(ts *TrainScratch, invBs float64) {
	lr := n.cfg.LearningRate
	l2 := n.cfg.L2
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	switch n.cfg.Optimizer {
	case SGD:
		for li := n.frozen; li < len(n.layers); li++ {
			l := n.layers[li]
			w := l.w
			gw := ts.gradW[li][:len(w)]
			for i := range w {
				w[i] -= lr * math.FMA(l2, w[i], gw[i]*invBs)
			}
			gb := ts.gradB[li]
			for o := range l.b {
				l.b[o] -= lr * (gb[o] * invBs)
			}
		}
	case Adagrad:
		for li := n.frozen; li < len(n.layers); li++ {
			l := n.layers[li]
			w := l.w
			gw := ts.gradW[li][:len(w)]
			vW := l.vW[:len(w)]
			for i := range w {
				g := math.FMA(l2, w[i], gw[i]*invBs)
				v := math.FMA(g, g, vW[i])
				vW[i] = v
				w[i] -= lr * g / (math.Sqrt(v) + eps)
			}
			gb := ts.gradB[li]
			for o := range l.b {
				g := gb[o] * invBs
				v := math.FMA(g, g, l.vB[o])
				l.vB[o] = v
				l.b[o] -= lr * g / (math.Sqrt(v) + eps)
			}
		}
	case Adam:
		t := float64(n.step)
		lrc1 := lr / (1 - math.Pow(beta1, t))
		invC2 := 1 / (1 - math.Pow(beta2, t))
		const (
			c1 = 1 - beta1
			c2 = 1 - beta2
		)
		for li := n.frozen; li < len(n.layers); li++ {
			l := n.layers[li]
			w := l.w
			gw := ts.gradW[li][:len(w)]
			mW := l.mW[:len(w)]
			vW := l.vW[:len(w)]
			for i := range w {
				g := math.FMA(l2, w[i], gw[i]*invBs)
				m := math.FMA(beta1, mW[i], c1*g)
				v := math.FMA(beta2, vW[i], c2*g*g)
				mW[i], vW[i] = m, v
				w[i] -= lrc1 * m / (math.Sqrt(v*invC2) + eps)
			}
			gb := ts.gradB[li]
			for o := range l.b {
				g := gb[o] * invBs
				m := math.FMA(beta1, l.mB[o], c1*g)
				v := math.FMA(beta2, l.vB[o], c2*g*g)
				l.mB[o], l.vB[o] = m, v
				l.b[o] -= lrc1 * m / (math.Sqrt(v*invC2) + eps)
			}
		}
	}
}

//! f64 matrix multiply: scalar reference and a register-tiled fast path.
//!
//! Both kernels compute `C += A · B` for row-major `A` (`m × k`),
//! `B` (`k × n`) and `C` (`m × n`). Accumulating *onto* `C` (instead of
//! overwriting it) lets convolution callers preload the bias for free.
//!
//! # Bit-exactness
//!
//! For every output element `C[i][j]`, both kernels perform the identical
//! chain of IEEE-754 operations: starting from the preloaded value, add
//! `A[i][kk] * B[kk][j]` for `kk = 0, 1, …, k-1`, rounding after every
//! multiply and every add. The fast kernel only changes *which element's*
//! next addition runs when (tiling over `i`, `j` and `kk`, vectorizing over
//! `j`), never the per-element order — so the two are bit-identical for
//! **all** inputs, including non-finite values and signed zeros. The
//! differential proptest harness (`tests/proptest_kernels.rs`) holds that
//! line.
//!
//! # The fast kernel
//!
//! `B` is packed `NR` columns at a time into a panel of at most `KC`
//! rows (16 KiB, on the stack), which stays in L1 while every `MR`-row
//! tile of `A` streams over it. Each tile keeps its `MR × NR` block of `C`
//! in registers for the panel's whole `kk` run, so `C` is loaded and stored
//! once per panel instead of once per `kk`. Callers that can produce `B`'s
//! columns without materializing `B` — the convolutions' implicit im2col —
//! supply their own packer through [`gemm_packed`], and may leave out rows
//! of `B` whose terms they know to be exact no-ops.

use crate::conv::Activation;

/// Rows of `A` (and `C`) per register tile. With the baseline x86-64
/// target (SSE2, sixteen 2-lane registers) a 2 × 8 block of `C` takes
/// eight registers and leaves room for the `B` row and the `A` broadcasts;
/// a 4 × 8 block spills and measured slower.
pub(crate) const MR: usize = 2;

/// Columns of `B` (and `C`) per packed panel and register tile.
pub(crate) const NR: usize = 8;

/// Rows of `B` per packed panel: `KC × NR` f64 is 16 KiB, half a typical
/// L1 data cache, so the panel and two `A` rows stay resident.
pub(crate) const KC: usize = 256;

fn check_dims(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &[f64]) {
    assert_eq!(a.len(), m * k, "gemm: A must be m*k");
    assert_eq!(b.len(), k * n, "gemm: B must be k*n");
    assert_eq!(c.len(), m * n, "gemm: C must be m*n");
}

/// Scalar reference: per-element register accumulation in ascending `kk`.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m`/`k`/`n`.
pub fn gemm_ref(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    check_dims(m, k, n, a, b, c);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let mut acc = c[i * n + j];
            for (kk, &aik) in arow.iter().enumerate() {
                acc += aik * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Register-tiled fast path: identical per-element operation order to
/// [`gemm_ref`], with `B` packed into L1-sized panels and `C` held in
/// registers across each panel (see the module docs).
///
/// # Panics
///
/// Panics if the slice lengths do not match `m`/`k`/`n`.
pub fn gemm_fast(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    check_dims(m, k, n, a, b, c);
    gemm_packed(m, k, n, a, c, None, Activation::Identity, &[(0, k)], |kk0, j0, panel| {
        let nr = NR.min(n - j0);
        for (r, dst) in panel.chunks_exact_mut(NR).enumerate() {
            dst[..nr].copy_from_slice(&b[(kk0 + r) * n + j0..][..nr]);
            dst[nr..].fill(0.0);
        }
    });
}

/// `C += A · B` over the `kk` listed in `live`, with `B` supplied one panel
/// at a time, then `act` applied to every element of `C`. With `bias`,
/// `C`'s prior contents are ignored and row `i` starts from `bias[i]`
/// instead: `C = bias ⊕ A · B`.
///
/// `live` holds ascending, disjoint `(first kk, count)` runs; every other
/// `kk` is skipped, so the caller must know its terms are exact no-ops.
/// `pack(kk0, j0, panel)` must fill `panel[r * NR + jj]` with
/// `B[kk0 + r][j0 + jj]` for every row `r < panel.len() / NR`, and with
/// `0.0` where `j0 + jj >= n`.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m`/`k`/`n` or a run of
/// `live` reaches past `k`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    c: &mut [f64],
    bias: Option<&[f64]>,
    act: Activation,
    live: &[(usize, usize)],
    mut pack: impl FnMut(usize, usize, &mut [f64]),
) {
    assert_eq!(a.len(), m * k, "gemm: A must be m*k");
    assert_eq!(c.len(), m * n, "gemm: C must be m*n");
    assert!(bias.is_none_or(|b| b.len() == m), "gemm: bias must be m");
    assert!(live.iter().all(|&(kk, len)| kk + len <= k), "gemm: live runs must lie in k");
    let mut panel_buf = [0.0; KC * NR];
    // The live runs packed into the current panel, as (kk, rows).
    let mut block = [(0, 0); KC];
    for j0 in (0..n).step_by(NR) {
        let nr = NR.min(n - j0);
        // Next live run, and how many of its rows earlier panels took.
        let (mut run, mut done) = (0, 0);
        let mut first = true;
        loop {
            let (mut rows, mut runs) = (0, 0);
            while rows < KC && run < live.len() {
                let (kk, len) = live[run];
                let take = (len - done).min(KC - rows);
                pack(kk + done, j0, &mut panel_buf[rows * NR..(rows + take) * NR]);
                block[runs] = (kk + done, take);
                (rows, runs, done) = (rows + take, runs + 1, done + take);
                if done == len {
                    (run, done) = (run + 1, 0);
                }
            }
            let last = run == live.len();
            let panel = &panel_buf[..rows * NR];
            for i0 in (0..m).step_by(MR) {
                let mr = MR.min(m - i0);
                // Tile rows past `m` re-read the last real row; their sums
                // are computed and discarded.
                let a_rows = std::array::from_fn(|ii| &a[(i0 + ii.min(mr - 1)) * k..][..k]);
                let mut acc = [[0.0; NR]; MR];
                for (ii, row) in acc.iter_mut().enumerate().take(mr) {
                    let src = &c[(i0 + ii) * n + j0..][..nr];
                    match (bias, <&[f64; NR]>::try_from(src)) {
                        (Some(bias), _) if first => *row = [bias[i0 + ii]; NR],
                        (_, Ok(full)) => *row = *full,
                        (_, Err(_)) => row[..nr].copy_from_slice(src),
                    }
                }
                tile(a_rows, &block[..runs], panel, &mut acc);
                for (ii, row) in acc.iter_mut().enumerate().take(mr) {
                    if last {
                        act.apply(row);
                    }
                    let dst = &mut c[(i0 + ii) * n + j0..][..nr];
                    match <&mut [f64; NR]>::try_from(&mut *dst) {
                        Ok(full) => *full = *row,
                        Err(_) => dst.copy_from_slice(&row[..nr]),
                    }
                }
            }
            if last {
                break;
            }
            first = false;
        }
    }
}

/// The register tile: `acc[i][j] += a_rows[i][kk] * panel[r][j]` for the
/// `kk` of each run in turn, ascending, where panel row `r` holds `B`'s
/// row `kk`. Kept out of line: inlined into `gemm_packed`'s loops, the
/// accumulators get a lane layout that costs a shuffle per `kk`.
#[inline(never)]
fn tile(a_rows: [&[f64]; MR], runs: &[(usize, usize)], panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    let [a0, a1] = a_rows;
    let mut r = 0;
    for &(kk, len) in runs {
        let b_rows = panel[r * NR..(r + len) * NR].chunks_exact(NR);
        for ((&x0, &x1), b) in a0[kk..kk + len].iter().zip(&a1[kk..kk + len]).zip(b_rows) {
            for j in 0..NR {
                acc[0][j] += x0 * b[j];
            }
            for j in 0..NR {
                acc[1][j] += x1 * b[j];
            }
        }
        r += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mat(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    #[test]
    fn small_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] + [1 0; 0 1]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [1.0, 0.0, 0.0, 1.0];
        gemm_ref(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [20.0, 22.0, 43.0, 51.0]);
        let mut c = [1.0, 0.0, 0.0, 1.0];
        gemm_fast(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [20.0, 22.0, 43.0, 51.0]);
    }

    #[test]
    fn fast_is_bit_identical_across_blocking_boundaries() {
        let mut rng = StdRng::seed_from_u64(7);
        // Shapes straddling the MR/NR tile edges and the KC panel edge.
        for (m, k, n) in
            [(1, 1, 1), (3, 63, 5), (4, 64, 4), (2, 65, 7), (5, 130, 3), (3, 257, 17), (7, 1, 9)]
        {
            let a = mat(&mut rng, m * k);
            let b = mat(&mut rng, k * n);
            let init = mat(&mut rng, m * n);
            let mut c_ref = init.clone();
            let mut c_fast = init;
            gemm_ref(m, k, n, &a, &b, &mut c_ref);
            gemm_fast(m, k, n, &a, &b, &mut c_fast);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&c_ref), bits(&c_fast), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn signed_zeros_and_nans_round_trip_identically() {
        let a = [0.0, -0.0, f64::NAN, 1.0];
        let b = [-0.0, 1.0, 0.5, -0.0];
        let mut c_ref = [-0.0, 0.0, -0.0, 0.0];
        let mut c_fast = c_ref;
        gemm_ref(2, 2, 2, &a, &b, &mut c_ref);
        gemm_fast(2, 2, 2, &a, &b, &mut c_fast);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c_ref), bits(&c_fast));
    }

    #[test]
    #[should_panic(expected = "gemm: A must be m*k")]
    fn mismatched_dims_panic() {
        gemm_ref(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut [0.0; 4]);
    }
}

//! Direct depthwise convolution: one spatial micro-kernel per channel, no
//! im2col materialisation.
//!
//! A depthwise convolution (`groups == in_channels == out_channels`) turns
//! the im2col→GEMM strategy into its worst case: per channel the "GEMM" is a
//! `1 × k² × (oh·ow)` product, so the engine spends more time writing and
//! re-reading the column matrix than multiplying. This module convolves each
//! channel directly: the kernel taps are iterated in the outer loops and the
//! inner loop runs contiguously along an output row
//! (`out_row[j] += w_tap * in_row[j + kj - pad]` for stride 1), which the
//! compiler auto-vectorises into packed FMA over the row. The optional
//! per-channel scale/shift + activation epilogue is applied in a final pass
//! over the freshly-computed (cache-hot) channel block, matching the
//! GEMM's [`crate::Store::Epilogue`] semantics exactly — including NaN
//! behaviour, since it reuses the same scalar [`crate::EpilogueAct::apply`].

use crate::gemm::Epilogue;

/// For one kernel tap offset `k` (row or column), the half-open range of
/// output coordinates whose sampled input coordinate `o*stride + k - pad`
/// lands inside `[0, extent)` — the boundary primitive shared by this
/// kernel and the im2col/col2im transforms in `hs-nn`.
#[inline]
pub fn valid_out_range(
    extent: usize,
    k: usize,
    stride: usize,
    pad: usize,
    out_len: usize,
) -> (usize, usize) {
    let lo = pad.saturating_sub(k).div_ceil(stride);
    let hi = if extent + pad > k {
        ((extent + pad - k).div_ceil(stride)).min(out_len)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// Direct depthwise convolution of one `[c, h, w]` sample with per-channel
/// `[c, k, k]` weights into a `[c, oh, ow]` output block
/// (`oh = (h + 2*pad - k)/stride + 1`, likewise `ow`).
///
/// * With `ep == Some(e)`: `out = e.act(e.scale[c] * conv + e.shift[c])`;
///   `bias` is ignored (folded into `shift` by the caller).
/// * With `ep == None`: `out = conv + bias[c]`.
///
/// The output block is fully overwritten. No scratch is needed — this is
/// the allocation-free backend for the depthwise layers of the mobile zoo.
///
/// # Panics
///
/// Panics if a slice is shorter than its shape contract.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_conv2d(
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    ep: Option<Epilogue<'_>>,
    out: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) {
    assert!(stride >= 1 && k >= 1, "kernel and stride must be positive");
    assert!(
        h + 2 * pad >= k && w + 2 * pad >= k,
        "input too small for the kernel"
    );
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    assert!(input.len() >= c * h * w, "depthwise input too short");
    assert!(weights.len() >= c * k * k, "depthwise weights too short");
    assert!(out.len() >= c * oh * ow, "depthwise output too short");
    if let Some(e) = ep {
        assert!(
            e.scale.len() >= c && e.shift.len() >= c,
            "depthwise epilogue needs one scale/shift entry per channel"
        );
    } else {
        assert!(bias.len() >= c, "depthwise bias too short");
    }

    for ci in 0..c {
        let chan_in = &input[ci * h * w..(ci + 1) * h * w];
        let chan_w = &weights[ci * k * k..(ci + 1) * k * k];
        let chan_out = &mut out[ci * oh * ow..(ci + 1) * oh * ow];
        // the mobile zoo's one true depthwise shape gets a single-pass
        // micro-kernel: all nine taps accumulate in registers per output
        // element instead of nine read-modify-write sweeps over the row
        // (which dominate at the zoo's small spatial extents)
        if k == 3 && stride == 1 && pad == 1 && h >= 2 && w >= 2 {
            depthwise3x3_s1p1(chan_in, chan_w, chan_out, h, w);
        } else {
            depthwise_generic(chan_in, chan_w, chan_out, h, w, k, stride, pad, oh, ow);
        }
        // epilogue / bias over the cache-hot channel block
        match ep {
            Some(e) => {
                for v in chan_out.iter_mut() {
                    *v = e.apply_scalar(ci, *v);
                }
            }
            None => {
                let b = bias[ci];
                for v in chan_out.iter_mut() {
                    *v += b;
                }
            }
        }
    }
}

/// Single-pass 3×3 stride-1 pad-1 depthwise kernel for one channel:
/// `out` has the same `h × w` extent as the input. Interior rows unroll all
/// nine taps into one register accumulation per output element (the inner
/// column loop vectorises); the four borders run the tap-by-tap fallback.
fn depthwise3x3_s1p1(input: &[f32], wgt: &[f32], out: &mut [f32], h: usize, w: usize) {
    let (w00, w01, w02) = (wgt[0], wgt[1], wgt[2]);
    let (w10, w11, w12) = (wgt[3], wgt[4], wgt[5]);
    let (w20, w21, w22) = (wgt[6], wgt[7], wgt[8]);
    for oi in 1..h.saturating_sub(1) {
        let r0 = &input[(oi - 1) * w..oi * w];
        let r1 = &input[oi * w..(oi + 1) * w];
        let r2 = &input[(oi + 1) * w..(oi + 2) * w];
        let out_row = &mut out[oi * w..(oi + 1) * w];
        for j in 1..w - 1 {
            out_row[j] = w00 * r0[j - 1]
                + w01 * r0[j]
                + w02 * r0[j + 1]
                + w10 * r1[j - 1]
                + w11 * r1[j]
                + w12 * r1[j + 1]
                + w20 * r2[j - 1]
                + w21 * r2[j]
                + w22 * r2[j + 1];
        }
        // left/right padded columns: the out-of-image taps contribute zero
        out_row[0] =
            w01 * r0[0] + w02 * r0[1] + w11 * r1[0] + w12 * r1[1] + w21 * r2[0] + w22 * r2[1];
        out_row[w - 1] = w00 * r0[w - 2]
            + w01 * r0[w - 1]
            + w10 * r1[w - 2]
            + w11 * r1[w - 1]
            + w20 * r2[w - 2]
            + w21 * r2[w - 1];
    }
    // top and bottom padded rows through the generic tap loop
    for oi in [0, h - 1] {
        let out_row = &mut out[oi * w..(oi + 1) * w];
        for (j, o) in out_row.iter_mut().enumerate() {
            let mut acc = 0.0;
            for r in 0..3 {
                let ii = oi as isize + r as isize - 1;
                if ii < 0 || ii >= h as isize {
                    continue;
                }
                for cc in 0..3 {
                    let jj = j as isize + cc as isize - 1;
                    if jj >= 0 && jj < w as isize {
                        acc += wgt[r * 3 + cc] * input[ii as usize * w + jj as usize];
                    }
                }
            }
            *o = acc;
        }
    }
}

/// The generic tap-by-tap depthwise body for one channel (any kernel size,
/// stride or padding): accumulates the raw convolution into `out`, whose
/// padding fringe stays at the zero established by the initial fill.
#[allow(clippy::too_many_arguments)]
fn depthwise_generic(
    chan_in: &[f32],
    chan_w: &[f32],
    chan_out: &mut [f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    chan_out.fill(0.0);
    for ki in 0..k {
        let (oi_lo, oi_hi) = valid_out_range(h, ki, stride, pad, oh);
        for kj in 0..k {
            let wv = chan_w[ki * k + kj];
            let (oj_lo, oj_hi) = valid_out_range(w, kj, stride, pad, ow);
            if oj_hi <= oj_lo {
                continue;
            }
            for oi in oi_lo..oi_hi {
                let ii = oi * stride + ki - pad;
                let out_row = &mut chan_out[oi * ow + oj_lo..oi * ow + oj_hi];
                if stride == 1 {
                    let jj0 = oj_lo + kj - pad;
                    let in_row = &chan_in[ii * w + jj0..ii * w + jj0 + out_row.len()];
                    for (o, &x) in out_row.iter_mut().zip(in_row.iter()) {
                        *o += wv * x;
                    }
                } else {
                    let in_row = &chan_in[ii * w..(ii + 1) * w];
                    for (idx, o) in out_row.iter_mut().enumerate() {
                        *o += wv * in_row[(oj_lo + idx) * stride + kj - pad];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::EpilogueAct;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Scalar per-pixel depthwise reference.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Vec<f32> {
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let mut out = vec![0.0f32; c * oh * ow];
        for ci in 0..c {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = bias[ci];
                    for ki in 0..k {
                        for kj in 0..k {
                            let ii = (oi * stride + ki) as isize - pad as isize;
                            let jj = (oj * stride + kj) as isize - pad as isize;
                            if ii >= 0 && ii < h as isize && jj >= 0 && jj < w as isize {
                                acc += weights[(ci * k + ki) * k + kj]
                                    * input[ci * h * w + ii as usize * w + jj as usize];
                            }
                        }
                    }
                    out[(ci * oh + oi) * ow + oj] = acc;
                }
            }
        }
        out
    }

    fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn matches_reference_across_shapes() {
        let mut rng = StdRng::seed_from_u64(21);
        for (c, h, w, k, stride, pad) in [
            (1usize, 5usize, 5usize, 3usize, 1usize, 1usize),
            (6, 7, 9, 3, 1, 1),
            (4, 8, 8, 3, 2, 1),
            (3, 6, 6, 5, 1, 2),
            (5, 9, 7, 5, 2, 2),
            (2, 4, 4, 1, 1, 0), // pointwise-depthwise degenerate case
            (2, 6, 5, 3, 1, 0), // no padding
        ] {
            let input = rand_vec(&mut rng, c * h * w);
            let weights = rand_vec(&mut rng, c * k * k);
            let bias = rand_vec(&mut rng, c);
            let expect = reference(&input, &weights, &bias, c, h, w, k, stride, pad);
            let mut got = vec![7.0f32; expect.len()]; // stale contents must be overwritten
            depthwise_conv2d(
                &input, &weights, &bias, None, &mut got, c, h, w, k, stride, pad,
            );
            for (i, (e, g)) in expect.iter().zip(got.iter()).enumerate() {
                assert!(
                    (e - g).abs() <= 1e-5 * e.abs().max(1.0),
                    "c={c} {h}x{w} k={k} s={stride} p={pad}: element {i}: {e} vs {g}"
                );
            }
        }
    }

    #[test]
    fn epilogue_matches_scalar_semantics_including_nan() {
        let mut rng = StdRng::seed_from_u64(22);
        let (c, h, w, k, stride, pad) = (3usize, 6usize, 6usize, 3usize, 1usize, 1usize);
        let mut input = rand_vec(&mut rng, c * h * w);
        input[h * w + 8] = f32::NAN; // poison one pixel of channel 1
        let weights = rand_vec(&mut rng, c * k * k);
        let zero_bias = vec![0.0f32; c];
        let scale = rand_vec(&mut rng, c);
        let shift = rand_vec(&mut rng, c);
        let plain = reference(&input, &weights, &zero_bias, c, h, w, k, stride, pad);
        for act in [
            EpilogueAct::None,
            EpilogueAct::Relu,
            EpilogueAct::LeakyRelu(0.1),
            EpilogueAct::Relu6,
        ] {
            let ep = Epilogue {
                scale: &scale,
                shift: &shift,
                act,
            };
            let mut got = vec![0.0f32; plain.len()];
            depthwise_conv2d(
                &input,
                &weights,
                &zero_bias,
                Some(ep),
                &mut got,
                c,
                h,
                w,
                k,
                stride,
                pad,
            );
            for (i, (p, g)) in plain.iter().zip(got.iter()).enumerate() {
                let ci = i / (h * w);
                let e = act.apply(p * scale[ci] + shift[ci]);
                assert_eq!(
                    e.is_nan(),
                    g.is_nan(),
                    "{act:?}: element {i}: NaN divergence {e} vs {g}"
                );
                if !e.is_nan() {
                    assert!(
                        (e - g).abs() <= 1e-5 * e.abs().max(1.0),
                        "{act:?}: element {i}: {e} vs {g}"
                    );
                }
            }
        }
    }
}

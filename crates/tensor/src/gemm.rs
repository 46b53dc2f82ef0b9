//! The high-performance GEMM kernel layer.
//!
//! This module is the compute core every hot path in the workspace funnels
//! into: [`Tensor::matmul`](crate::Tensor::matmul), the im2col convolution in
//! `hs-nn`, and the dense layers. It implements the classic BLIS/GotoBLAS
//! decomposition:
//!
//! * the `k` dimension is split into `KC`-deep panels,
//! * `B` panels are packed into `NR`-wide column strips,
//! * `A` panels are packed into `MR`-tall row tiles (column-major inside the
//!   tile so the micro-kernel reads both packs sequentially),
//! * an `MR x NR` register-tiled micro-kernel does all the flops,
//! * row blocks fan out across the shared [`hs_parallel`] pool when the
//!   problem is big enough and we are not already inside a pool task.
//!
//! One entry point, [`gemm`], runs every product. Its [`GemmSpec`] carries
//! the shape, the item count and `A`-panel cycle of a batch, the strides
//! and the [`Store`] mode; the algorithm follows from the shape (small-`m`
//! direct, packed blocked, row-band parallel, or the cyclic n-blocked batch
//! core for many skinny products).
//!
//! Three micro-kernels are selected **at runtime** (the build stays a plain
//! portable `x86-64`/other target — no `-C target-cpu` required):
//!
//! * AVX-512F: 8x48 tile, 24 zmm accumulators,
//! * AVX2+FMA: 8x48 tile processed as two 4x48 half-tiles of ymm registers,
//! * portable: the same 8x48 tile in autovectorisable scalar code.
//!
//! All edges are handled by zero-padding the packs, so every tile runs the
//! full-speed kernel; partial tiles are written out through a small bounce
//! buffer. Unlike the seed's i-k-j loop there is **no** `== 0.0` skip branch:
//! `0 * NaN` correctly stays `NaN` and the inner loop stays branch-free.
//!
//! Packing buffers live in a thread-local `GemmScratch`, so steady-state
//! GEMM calls allocate nothing.
//!
//! # Safety
//!
//! The SIMD micro-kernels are the only `unsafe` code in this crate. They are
//! `#[target_feature]` functions called strictly behind the corresponding
//! `is_x86_feature_detected!` check, and every pointer they touch derives
//! from a slice whose bounds are asserted in `run_kernel_direct` immediately
//! before the call.

#![allow(unsafe_code)]
// the register-tiled micro-kernels index fixed-size accumulator arrays by
// design; iterator chains there obscure the tiling and hurt codegen
#![allow(clippy::needless_range_loop)]

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::cell::RefCell;

/// Activation applied by a GEMM [`Epilogue`] after the scale/shift step.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum EpilogueAct {
    /// Identity: the affine result is stored unchanged.
    #[default]
    None,
    /// `max(0, x)`.
    Relu,
    /// `x` for positive inputs, `slope * x` otherwise.
    LeakyRelu(f32),
    /// `min(max(0, x), 6)` — the mobile-zoo clipped ReLU.
    Relu6,
}

impl EpilogueAct {
    /// Applies the activation to a single value (the scalar reference the
    /// SIMD store loops must match, including on NaN: ReLU maps NaN to 0
    /// like `f32::max`, LeakyReLU and ReLU6 propagate it like the
    /// corresponding unfused activation layers).
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            EpilogueAct::None => v,
            EpilogueAct::Relu => v.max(0.0),
            EpilogueAct::LeakyRelu(slope) => {
                if v > 0.0 {
                    v
                } else {
                    slope * v
                }
            }
            EpilogueAct::Relu6 => v.clamp(0.0, 6.0),
        }
    }
}

/// A fused GEMM epilogue: per-output-row affine transform followed by an
/// activation, applied inside the micro-kernel store loop on the final `k`
/// panel, so `y[i][j] = act(scale[i] * (A*B)[i][j] + shift[i])` costs no
/// extra pass over the output.
///
/// This is exactly the shape of an inference `Conv2d -> BatchNorm2d ->
/// activation` stack expressed as a GEMM over the im2col matrix: rows are
/// output channels, `scale = gamma / sqrt(var + eps)` and
/// `shift = beta - mean * scale + scale * bias` fold the batch-norm (and the
/// convolution bias) into the store.
#[derive(Clone, Copy)]
pub struct Epilogue<'a> {
    /// Per-output-row multiplier (`len >= m`).
    pub scale: &'a [f32],
    /// Per-output-row addend (`len >= m`).
    pub shift: &'a [f32],
    /// Activation applied after the affine step.
    pub act: EpilogueAct,
}

impl<'a> Epilogue<'a> {
    /// The epilogue re-based so row `rows` becomes row 0 (used when output
    /// row bands are dispatched to pool tasks that index from zero).
    fn offset_rows(&self, rows: usize) -> Epilogue<'a> {
        Epilogue {
            scale: &self.scale[rows..],
            shift: &self.shift[rows..],
            act: self.act,
        }
    }

    /// Applies the epilogue to one scalar at output row `row` (shared with
    /// the depthwise backend, whose store loop is scalar).
    #[inline]
    pub(crate) fn apply_scalar(&self, row: usize, v: f32) -> f32 {
        self.act.apply(v * self.scale[row] + self.shift[row])
    }
}

/// Accumulates one bounce-buffer row into `dst`, applying the epilogue for
/// output row `row` when present — the shared store step of every
/// ragged-tile path (where the kernels cannot be handed a full `MR` rows of
/// scale/shift).
#[inline]
fn store_edge_row(dst: &mut [f32], src: &[f32], row: usize, ep: Option<Epilogue<'_>>) {
    match ep {
        None => {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
        Some(e) => {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d = e.apply_scalar(row, *d + s);
            }
        }
    }
}

/// Tile-local epilogue view handed to the SIMD micro-kernels: raw pointers
/// pre-offset to the tile's first output row, valid for `MR` rows.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct KernelEpilogue {
    scale: *const f32,
    shift: *const f32,
    act: EpilogueAct,
}

/// Rows per micro-kernel tile.
pub const MR: usize = 8;
/// Columns per micro-kernel tile.
pub const NR: usize = 48;
/// Depth of one packed `k` panel.
const KC: usize = 256;
/// `A`-block height in tiles: one block packs `MC_TILES * MR` rows.
const MC_TILES: usize = 64;
/// Problems below this flop count stay serial (pool dispatch costs more).
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 20;
/// Up to this many output rows, `B` is read in place instead of packed: a
/// packed panel would be reused at most `m / MR` times, too few to pay for
/// the packing traffic (the convolution GEMMs sit squarely in this regime).
const DIRECT_M_MAX: usize = 64;

/// Reusable packing buffers. One lives per thread (the `SCRATCH`
/// thread-local); parallel row-band tasks allocate their own short-lived
/// packs.
struct GemmScratch {
    apack: Vec<f32>,
    bpack: Vec<f32>,
    edge: Vec<f32>,
}

impl GemmScratch {
    const fn new() -> Self {
        GemmScratch {
            apack: Vec::new(),
            bpack: Vec::new(),
            edge: Vec::new(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<GemmScratch> = const { RefCell::new(GemmScratch::new()) };
    /// Staging buffer for the transposed operand of [`gemm_nt`]/[`gemm_tn`].
    /// Taken out of the cell (not borrowed) for the duration of the inner
    /// [`gemm`], since a parallel gemm may run unrelated pool tasks on this
    /// thread while waiting.
    static TRANSPOSE_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Which micro-kernel the running CPU supports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Isa {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

fn detect_isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Isa::Avx2;
        }
    }
    Isa::Portable
}

fn isa() -> Isa {
    use std::sync::OnceLock;
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(detect_isa)
}

// ---------------------------------------------------------------------------
// Micro-kernels: out[MR x NR] += apack (kc x MR) * b-window (kc rows)
//
// One kernel family, parameterised by the B row stride `ldb`: packed panels
// pass ldb = NR, the small-m path passes the source matrix's own stride so B
// is read in place.
// ---------------------------------------------------------------------------

/// AVX-512 micro-kernel reading `B` directly at row stride `ldb` (no
/// packing when `ldb` is the source stride; the packed path passes
/// `ldb = NR`). When `ep` is present the store loop applies the fused
/// per-row scale/shift + activation epilogue instead of a plain store.
///
/// # Safety
///
/// Caller must ensure `avx512f` is available, `apack` holds `kc * MR`
/// floats, rows `b[p*ldb .. p*ldb+NR]` for `p < kc` are in bounds,
/// `out` rows `out[i*ldc .. i*ldc+NR]` for `i < MR` are in bounds, and
/// `ep`'s scale/shift pointers (when present) are valid for `MR` reads.
/// There is **no alignment precondition**: every vector access is an
/// unaligned `loadu`/`storeu`, so any 4-byte-aligned `f32` slice works.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_avx512_direct(
    apack: *const f32,
    b: *const f32,
    ldb: usize,
    out: *mut f32,
    kc: usize,
    ldc: usize,
    ep: Option<KernelEpilogue>,
) {
    let mut acc = [[_mm512_setzero_ps(); 3]; MR];
    let mut ap = apack;
    let mut bp = b;
    for _ in 0..kc {
        let b0 = _mm512_loadu_ps(bp);
        let b1 = _mm512_loadu_ps(bp.add(16));
        let b2 = _mm512_loadu_ps(bp.add(32));
        for i in 0..MR {
            let av = _mm512_set1_ps(*ap.add(i));
            acc[i][0] = _mm512_fmadd_ps(av, b0, acc[i][0]);
            acc[i][1] = _mm512_fmadd_ps(av, b1, acc[i][1]);
            acc[i][2] = _mm512_fmadd_ps(av, b2, acc[i][2]);
        }
        ap = ap.add(MR);
        bp = bp.add(ldb);
    }
    match ep {
        None => {
            for (i, acc_row) in acc.iter().enumerate() {
                for (v, acc_v) in acc_row.iter().enumerate() {
                    let ptr = out.add(i * ldc + v * 16);
                    _mm512_storeu_ps(ptr, _mm512_add_ps(_mm512_loadu_ps(ptr), *acc_v));
                }
            }
        }
        Some(e) => {
            let zero = _mm512_setzero_ps();
            for (i, acc_row) in acc.iter().enumerate() {
                let sc = _mm512_set1_ps(*e.scale.add(i));
                let sh = _mm512_set1_ps(*e.shift.add(i));
                for (v, acc_v) in acc_row.iter().enumerate() {
                    let ptr = out.add(i * ldc + v * 16);
                    let sum = _mm512_add_ps(_mm512_loadu_ps(ptr), *acc_v);
                    // multiply then add, rounding twice like the scalar
                    // edge path: a fused multiply-add here would make an
                    // element's bits depend on which path stored it
                    let mut val = _mm512_add_ps(_mm512_mul_ps(sum, sc), sh);
                    // branch-faithful forms of EpilogueAct::apply, so NaN
                    // behaves identically to the scalar path (compares are
                    // ordered: NaN lanes keep the "else" value)
                    val = match e.act {
                        EpilogueAct::None => val,
                        EpilogueAct::Relu => _mm512_max_ps(val, zero),
                        EpilogueAct::LeakyRelu(slope) => {
                            let gt = _mm512_cmp_ps_mask(val, zero, _CMP_GT_OQ);
                            let neg = _mm512_mul_ps(val, _mm512_set1_ps(slope));
                            _mm512_mask_blend_ps(gt, neg, val)
                        }
                        EpilogueAct::Relu6 => {
                            let six = _mm512_set1_ps(6.0);
                            let lt = _mm512_cmp_ps_mask(val, zero, _CMP_LT_OQ);
                            let gt = _mm512_cmp_ps_mask(val, six, _CMP_GT_OQ);
                            let clamped = _mm512_mask_blend_ps(lt, val, zero);
                            _mm512_mask_blend_ps(gt, clamped, six)
                        }
                    };
                    _mm512_storeu_ps(ptr, val);
                }
            }
        }
    }
}

/// AVX2+FMA twin of [`kernel_avx512_direct`].
///
/// # Safety
///
/// Same contract as [`kernel_avx512_direct`] — bounds as documented there,
/// no alignment requirement beyond `f32` (unaligned `loadu`/`storeu`
/// throughout) — requiring the `avx2` and `fma` ISA extensions instead.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn kernel_avx2_direct(
    apack: *const f32,
    b: *const f32,
    ldb: usize,
    out: *mut f32,
    kc: usize,
    ldc: usize,
    ep: Option<KernelEpilogue>,
) {
    for half in 0..2 {
        let mut acc = [[_mm256_setzero_ps(); 6]; 4];
        let mut ap = apack.add(half * 4);
        let mut bp = b;
        for _ in 0..kc {
            for i in 0..4 {
                let av = _mm256_set1_ps(*ap.add(i));
                for v in 0..6 {
                    acc[i][v] = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(v * 8)), acc[i][v]);
                }
            }
            ap = ap.add(MR);
            bp = bp.add(ldb);
        }
        match ep {
            None => {
                for (i, acc_row) in acc.iter().enumerate() {
                    for (v, acc_v) in acc_row.iter().enumerate() {
                        let ptr = out.add((half * 4 + i) * ldc + v * 8);
                        _mm256_storeu_ps(ptr, _mm256_add_ps(_mm256_loadu_ps(ptr), *acc_v));
                    }
                }
            }
            Some(e) => {
                let zero = _mm256_setzero_ps();
                for (i, acc_row) in acc.iter().enumerate() {
                    let row = half * 4 + i;
                    let sc = _mm256_set1_ps(*e.scale.add(row));
                    let sh = _mm256_set1_ps(*e.shift.add(row));
                    for (v, acc_v) in acc_row.iter().enumerate() {
                        let ptr = out.add(row * ldc + v * 8);
                        let sum = _mm256_add_ps(_mm256_loadu_ps(ptr), *acc_v);
                        // multiply then add (see the AVX-512 kernel)
                        let mut val = _mm256_add_ps(_mm256_mul_ps(sum, sc), sh);
                        // branch-faithful forms of EpilogueAct::apply (see
                        // the AVX-512 kernel for the NaN rationale)
                        val = match e.act {
                            EpilogueAct::None => val,
                            EpilogueAct::Relu => _mm256_max_ps(val, zero),
                            EpilogueAct::LeakyRelu(slope) => {
                                let gt = _mm256_cmp_ps(val, zero, _CMP_GT_OQ);
                                let neg = _mm256_mul_ps(val, _mm256_set1_ps(slope));
                                _mm256_blendv_ps(neg, val, gt)
                            }
                            EpilogueAct::Relu6 => {
                                let six = _mm256_set1_ps(6.0);
                                let lt = _mm256_cmp_ps(val, zero, _CMP_LT_OQ);
                                let gt = _mm256_cmp_ps(val, six, _CMP_GT_OQ);
                                let clamped = _mm256_blendv_ps(val, zero, lt);
                                _mm256_blendv_ps(clamped, six, gt)
                            }
                        };
                        _mm256_storeu_ps(ptr, val);
                    }
                }
            }
        }
    }
}

/// Portable twin of [`kernel_avx512_direct`].
fn kernel_portable_direct(
    apack: &[f32],
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    kc: usize,
    ldc: usize,
    ep: Option<Epilogue<'_>>,
) {
    let mut acc = [[0.0f32; NR]; MR];
    let apack = &apack[..kc * MR];
    for p in 0..kc {
        let ap: &[f32; MR] = apack[p * MR..p * MR + MR].try_into().unwrap();
        let bp: &[f32; NR] = b[p * ldb..p * ldb + NR].try_into().unwrap();
        for i in 0..MR {
            let a_ip = ap[i];
            for j in 0..NR {
                acc[i][j] += a_ip * bp[j];
            }
        }
    }
    match ep {
        None => {
            for (i, acc_row) in acc.iter().enumerate() {
                let out_row = &mut out[i * ldc..i * ldc + NR];
                for j in 0..NR {
                    out_row[j] += acc_row[j];
                }
            }
        }
        Some(e) => {
            for (i, acc_row) in acc.iter().enumerate() {
                let (sc, sh) = (e.scale[i], e.shift[i]);
                let out_row = &mut out[i * ldc..i * ldc + NR];
                for j in 0..NR {
                    out_row[j] = e.act.apply((out_row[j] + acc_row[j]) * sc + sh);
                }
            }
        }
    }
}

/// Bounds-asserting dispatcher for the direct-`B` kernels. `ep`, when
/// present, must be pre-offset so its row 0 is this tile's first output row
/// and carry at least `MR` scale/shift entries.
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_kernel_direct(
    which: Isa,
    apack: &[f32],
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    kc: usize,
    ldc: usize,
    ep: Option<Epilogue<'_>>,
) {
    assert!(apack.len() >= kc * MR, "A pack too short");
    assert!(
        kc == 0 || b.len() >= (kc - 1) * ldb + NR,
        "B window too short for a direct strip"
    );
    assert!(
        out.len() >= (MR - 1) * ldc + NR,
        "output window too short for an MRxNR tile"
    );
    if let Some(e) = ep {
        assert!(
            e.scale.len() >= MR && e.shift.len() >= MR,
            "epilogue scale/shift too short for an MR-row tile"
        );
    }
    match which {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe {
            // SAFETY: avx512f verified by `isa()`; lengths asserted above
            // (including MR epilogue rows when `ep` is present).
            kernel_avx512_direct(
                apack.as_ptr(),
                b.as_ptr(),
                ldb,
                out.as_mut_ptr(),
                kc,
                ldc,
                ep.map(|e| KernelEpilogue {
                    scale: e.scale.as_ptr(),
                    shift: e.shift.as_ptr(),
                    act: e.act,
                }),
            )
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            // SAFETY: avx2+fma verified by `isa()`; lengths asserted above
            // (including MR epilogue rows when `ep` is present).
            kernel_avx2_direct(
                apack.as_ptr(),
                b.as_ptr(),
                ldb,
                out.as_mut_ptr(),
                kc,
                ldc,
                ep.map(|e| KernelEpilogue {
                    scale: e.scale.as_ptr(),
                    shift: e.shift.as_ptr(),
                    act: e.act,
                }),
            )
        },
        Isa::Portable => kernel_portable_direct(apack, b, ldb, out, kc, ldc, ep),
    }
}

/// Packed-panel kernel dispatch: the packed layout is simply the direct
/// layout with row stride `NR`.
#[inline]
fn run_kernel(
    which: Isa,
    apack: &[f32],
    bpack: &[f32],
    out: &mut [f32],
    kc: usize,
    ldc: usize,
    ep: Option<Epilogue<'_>>,
) {
    run_kernel_direct(which, apack, bpack, NR, out, kc, ldc, ep);
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Packs `B[pc..pc+kc, :]` into `NR`-wide zero-padded strips:
/// `bpack[strip][p][j]` for `j < NR`.
fn pack_b(b: &[f32], bpack: &mut Vec<f32>, pc: usize, kc: usize, n: usize) {
    let n_strips = n.div_ceil(NR);
    bpack.clear();
    bpack.resize(n_strips * kc * NR, 0.0);
    for js in 0..n_strips {
        let j0 = js * NR;
        let nr = NR.min(n - j0);
        let dst = &mut bpack[js * kc * NR..(js + 1) * kc * NR];
        // the resize above zero-filled the buffer, which also provides the
        // zero padding on the ragged edge strip
        for p in 0..kc {
            let src = &b[(pc + p) * n + j0..(pc + p) * n + j0 + nr];
            dst[p * NR..p * NR + nr].copy_from_slice(src);
        }
    }
}

// ---------------------------------------------------------------------------
// Weight element views: convert-on-pack for quantized storage
// ---------------------------------------------------------------------------

/// A read-only view of a GEMM `A` operand whose elements widen to `f32` on
/// access. The packing routines are generic over this trait, so f16/i8
/// weights are converted *while being packed* — the micro-kernels and the
/// epilogue only ever see packed `f32` panels and accumulation stays `f32`.
trait WeightElems: Copy + Send + Sync {
    /// Number of elements in the view.
    fn len(&self) -> usize;
    /// Element `i`, widened to `f32`.
    fn at(&self, i: usize) -> f32;
    /// The view starting at element `start` (the generic twin of
    /// `&a[start..]`).
    fn offset(&self, start: usize) -> Self;
}

impl WeightElems for &[f32] {
    #[inline(always)]
    fn len(&self) -> usize {
        (**self).len()
    }
    #[inline(always)]
    fn at(&self, i: usize) -> f32 {
        self[i]
    }
    #[inline(always)]
    fn offset(&self, start: usize) -> Self {
        &self[start..]
    }
}

/// IEEE binary16 weight elements (raw bit patterns), widened on access.
#[derive(Clone, Copy)]
struct F16Elems<'a>(&'a [u16]);

impl WeightElems for F16Elems<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.0.len()
    }
    #[inline(always)]
    fn at(&self, i: usize) -> f32 {
        crate::dtype::f16_bits_to_f32(self.0[i])
    }
    #[inline(always)]
    fn offset(&self, start: usize) -> Self {
        F16Elems(&self.0[start..])
    }
}

/// Symmetric per-tensor int8 weight elements; the scale is folded in during
/// widening, so the packed panels carry real-valued weights.
#[derive(Clone, Copy)]
struct I8Elems<'a> {
    q: &'a [i8],
    scale: f32,
}

impl WeightElems for I8Elems<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.q.len()
    }
    #[inline(always)]
    fn at(&self, i: usize) -> f32 {
        self.q[i] as f32 * self.scale
    }
    #[inline(always)]
    fn offset(&self, start: usize) -> Self {
        I8Elems {
            q: &self.q[start..],
            scale: self.scale,
        }
    }
}

/// A borrowed GEMM weight operand of runtime dtype — the `A` operand of
/// [`gemm`] and the `B` operand of [`gemm_nt`]. `F16`/`I8` widen to `f32`
/// inside the packing routines (convert-on-pack), so the bandwidth saving
/// comes from streaming half/quarter-width weights while the arithmetic
/// stays identical to `F32`.
#[derive(Clone, Copy, Debug)]
pub enum WeightMat<'a> {
    /// Plain `f32` weights.
    F32(&'a [f32]),
    /// IEEE binary16 bit patterns.
    F16(&'a [u16]),
    /// Symmetric per-tensor int8 values plus their dequantisation scale.
    I8 {
        /// The quantized values.
        data: &'a [i8],
        /// The per-tensor dequantisation scale.
        scale: f32,
    },
}

impl WeightMat<'_> {
    /// Number of elements in the operand.
    pub fn len(&self) -> usize {
        match self {
            WeightMat::F32(s) => s.len(),
            WeightMat::F16(s) => s.len(),
            WeightMat::I8 { data, .. } => data.len(),
        }
    }

    /// Whether the operand holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element dtype.
    pub fn dtype(&self) -> crate::dtype::DType {
        match self {
            WeightMat::F32(_) => crate::dtype::DType::F32,
            WeightMat::F16(_) => crate::dtype::DType::F16,
            WeightMat::I8 { .. } => crate::dtype::DType::I8,
        }
    }

    /// The sub-range `[start, end)` of the operand (the runtime twin of
    /// `&w[start..end]`, used for grouped-conv per-group panels).
    pub fn slice(&self, start: usize, end: usize) -> WeightMat<'_> {
        match self {
            WeightMat::F32(s) => WeightMat::F32(&s[start..end]),
            WeightMat::F16(s) => WeightMat::F16(&s[start..end]),
            WeightMat::I8 { data, scale } => WeightMat::I8 {
                data: &data[start..end],
                scale: *scale,
            },
        }
    }
}

/// Dispatches a [`WeightMat`] to a monomorphised [`WeightElems`] body.
macro_rules! with_elems {
    ($w:expr, $a:ident => $body:expr) => {
        match $w {
            WeightMat::F32(s) => {
                let $a: &[f32] = s;
                $body
            }
            WeightMat::F16(s) => {
                let $a = F16Elems(s);
                $body
            }
            WeightMat::I8 { data, scale } => {
                let $a = I8Elems { q: data, scale };
                $body
            }
        }
    };
}

/// Packs `A[row0..row0+rows, pc..pc+kc]` into `MR`-tall zero-padded tiles,
/// column-major inside each tile: `apack[tile][p][i]`. Generic over the
/// element view: quantized weights widen to `f32` here, in the same pass
/// that rearranges them.
fn pack_a<A: WeightElems>(
    a: A,
    apack: &mut Vec<f32>,
    row0: usize,
    rows: usize,
    pc: usize,
    kc: usize,
    k: usize,
) {
    let m_tiles = rows.div_ceil(MR);
    apack.clear();
    apack.resize(m_tiles * kc * MR, 0.0);
    for it in 0..m_tiles {
        let i0 = row0 + it * MR;
        let mr = MR.min(row0 + rows - i0);
        let dst = &mut apack[it * kc * MR..(it + 1) * kc * MR];
        for p in 0..kc {
            for i in 0..mr {
                dst[p * MR + i] = a.at((i0 + i) * k + pc + p);
            }
            dst[p * MR + mr..(p + 1) * MR].fill(0.0);
        }
    }
}

/// Runs the packed tiles of one `A` block against every `B` strip,
/// accumulating into `out` (which must already hold the desired base value).
/// `ep` (pre-offset to `out`'s row coordinates) is applied at store time and
/// must only be passed on the final `k` panel.
#[allow(clippy::too_many_arguments)]
fn block_multiply(
    which: Isa,
    apack: &[f32],
    bpack: &[f32],
    edge: &mut Vec<f32>,
    out: &mut [f32],
    row0: usize,
    rows: usize,
    kc: usize,
    n: usize,
    ep: Option<Epilogue<'_>>,
) {
    let m_tiles = rows.div_ceil(MR);
    let n_strips = n.div_ceil(NR);
    for it in 0..m_tiles {
        let i0 = row0 + it * MR;
        let mr = MR.min(row0 + rows - i0);
        let ap = &apack[it * kc * MR..(it + 1) * kc * MR];
        for js in 0..n_strips {
            let j0 = js * NR;
            let nr = NR.min(n - j0);
            let bp = &bpack[js * kc * NR..(js + 1) * kc * NR];
            if mr == MR && nr == NR {
                run_kernel(
                    which,
                    ap,
                    bp,
                    &mut out[i0 * n + j0..],
                    kc,
                    n,
                    ep.map(|e| e.offset_rows(i0)),
                );
            } else {
                // partial tile: run full width into a bounce buffer, then
                // copy out the live mr x nr corner (epilogue applied
                // scalar-wise here, since the kernel would read MR rows of
                // scale/shift that a ragged edge does not have)
                edge.clear();
                edge.resize(MR * NR, 0.0);
                run_kernel(which, ap, bp, edge, kc, NR, None);
                for i in 0..mr {
                    let src = &edge[i * NR..i * NR + nr];
                    let dst = &mut out[(i0 + i) * n + j0..(i0 + i) * n + j0 + nr];
                    store_edge_row(dst, src, i0 + i, ep);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Public entry point
// ---------------------------------------------------------------------------

/// How a [`gemm`] call stores its product into the output panels.
#[derive(Clone, Copy)]
pub enum Store<'a> {
    /// `out = A * B`; stale output contents are ignored.
    Overwrite,
    /// `out += A * B`; the caller provides the initial value (e.g. a bias
    /// fill).
    Accumulate,
    /// `out = act(scale ⊙ (A * B) + shift)`, applied in the micro-kernel
    /// store loop of the final `k` panel — the fused inference path for
    /// `Conv2d -> BatchNorm2d -> activation` stacks. Overwrites like
    /// [`Store::Overwrite`]. Item `t` of a cyclic batch uses rows
    /// `[(t % groups) * m, (t % groups + 1) * m)` of `scale`/`shift`.
    Epilogue(Epilogue<'a>),
}

/// The contract of one [`gemm`] call: `items` row-major products
/// `out_t = A_{t % groups} * B_t` with `A: [m, k]`, `B_t: [k, n]` and
/// `out_t: [m, n]`, stored as [`Store`] says.
///
/// Item `t`'s `B` panel starts at `t * stride_b` and its output panel at
/// `t * stride_out`; the `groups` `A` panels sit `stride_a` apart
/// (`stride_a == 0` shares one panel). Items are sample-major, group-minor
/// (`t = sample * groups + group`) — the layout of a grouped convolution's
/// per-(sample, group) GEMMs. `groups == items` gives every item its own
/// `A` panel. Strides only matter when `items > 1`.
#[derive(Clone, Copy)]
pub struct GemmSpec<'a> {
    /// Rows of `A` and of each output panel.
    pub m: usize,
    /// Columns of `A`, rows of each `B` panel.
    pub k: usize,
    /// Columns of each `B` and output panel.
    pub n: usize,
    /// Number of products.
    pub items: usize,
    /// Period of the `A` panel cycle; must divide `items`.
    pub groups: usize,
    /// Distance between consecutive `A` panels.
    pub stride_a: usize,
    /// Distance between consecutive `B` panels.
    pub stride_b: usize,
    /// Distance between consecutive output panels; elements between panels
    /// are left untouched.
    pub stride_out: usize,
    /// How the product is stored.
    pub store: Store<'a>,
}

impl GemmSpec<'_> {
    /// A single overwriting product `out = A * B` over dense panels.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        GemmSpec {
            m,
            k,
            n,
            items: 1,
            groups: 1,
            stride_a: m * k,
            stride_b: k * n,
            stride_out: m * n,
            store: Store::Overwrite,
        }
    }

    /// Checks the spec against the operand lengths.
    fn validate(&self, a_len: usize, b_len: usize, out_len: usize) {
        let GemmSpec {
            m,
            k,
            n,
            items,
            groups,
            stride_a,
            stride_b,
            stride_out,
            store,
        } = *self;
        assert!(groups >= 1, "a GEMM needs at least one group");
        assert_eq!(
            items % groups,
            0,
            "item count {items} must be a multiple of groups {groups}"
        );
        if let Store::Epilogue(e) = store {
            let rows = groups * m;
            assert!(e.scale.len() >= rows, "epilogue scale needs {rows} entries");
            assert!(e.shift.len() >= rows, "epilogue shift needs {rows} entries");
        }
        if items == 0 {
            return;
        }
        if groups > 1 {
            assert!(
                stride_a == 0 || stride_a >= m * k,
                "stride_a {stride_a} smaller than an A panel (m*k = {})",
                m * k
            );
        }
        if items > 1 {
            assert!(
                stride_b >= k * n,
                "stride_b {stride_b} smaller than a B panel (k*n = {})",
                k * n
            );
            assert!(
                stride_out >= m * n,
                "stride_out {stride_out} smaller than an output panel (m*n = {})",
                m * n
            );
        }
        let need_a = (groups - 1) * stride_a + m * k;
        assert!(a_len >= need_a, "A is {a_len} elements, need {need_a}");
        let need_b = (items - 1) * stride_b + k * n;
        assert!(b_len >= need_b, "B is {b_len} elements, need {need_b}");
        let need_out = (items - 1) * stride_out + m * n;
        assert!(
            out_len >= need_out,
            "out is {out_len} elements, need {need_out}"
        );
    }

    /// Whether the call is worth fanning out over the pool: a single product
    /// splits into row bands (so needs two tiles of rows), a batch into
    /// sample bands (so needs two samples).
    fn parallel(&self) -> bool {
        let shape_splits = if self.items == 1 {
            self.m >= 2 * MR
        } else {
            self.items / self.groups >= 2
        };
        shape_splits
            && 2 * self.m * self.k * self.n * self.items >= PARALLEL_FLOP_THRESHOLD
            && hs_parallel::num_threads() > 1
            && !hs_parallel::inside_pool()
    }
}

/// The GEMM entry point: runs the products described by `spec` (see
/// [`GemmSpec`]) with `A` of any [`WeightMat`] dtype. Quantized weights
/// widen to `f32` inside the packing pass (convert-on-pack); the
/// micro-kernels and accumulation stay `f32`.
///
/// The algorithm follows from the shape. A single product with `m <= 64`
/// packs `A` and reads `B` in place; a taller one runs the packed blocked
/// path, split into row bands over the shared [`hs_parallel`] pool when it
/// is big enough. Several items run the cyclic batched core: each group's
/// `A` panel is packed once per k-panel and the skinny `B` panels of its
/// samples are laid side by side in `NR`-wide strips, so the register tile
/// runs at full width even when `n < NR`; large batches fan out over sample
/// bands. Calls made from inside a pool task stay serial. Packing scratch
/// is thread-local, so steady-state calls do not allocate.
///
/// # Panics
///
/// Panics if `groups` is zero or does not divide `items`, a slice is
/// shorter than its strided contract, a stride is smaller than its panel,
/// or an epilogue's scale/shift hold fewer than `groups * m` entries.
pub fn gemm(a: WeightMat<'_>, b: &[f32], out: &mut [f32], spec: &GemmSpec<'_>) {
    spec.validate(a.len(), b.len(), out.len());
    with_elems!(a, aa => gemm_run(aa, b, out, spec, spec.parallel()));
}

/// The body of [`gemm`] after validation, with an explicit parallel/serial
/// switch so tests can exercise both paths regardless of the host's core
/// count.
fn gemm_run<A: WeightElems>(a: A, b: &[f32], out: &mut [f32], spec: &GemmSpec<'_>, parallel: bool) {
    let GemmSpec {
        m,
        k,
        n,
        items,
        groups,
        stride_out,
        store,
        ..
    } = *spec;
    if items == 0 || m == 0 || n == 0 {
        return;
    }
    // every overwriting store accumulates into zeros; with k == 0 the
    // product is all zeros and only the epilogue remains
    for t in 0..items {
        let panel = &mut out[t * stride_out..t * stride_out + m * n];
        match store {
            Store::Accumulate => {}
            Store::Epilogue(e) if k == 0 => {
                let e = e.offset_rows((t % groups) * m);
                for (i, row) in panel.chunks_mut(n).enumerate() {
                    row.fill(e.apply_scalar(i, 0.0));
                }
            }
            Store::Overwrite | Store::Epilogue(_) => panel.fill(0.0),
        }
    }
    if k == 0 {
        return;
    }
    let ep = match store {
        Store::Epilogue(e) => Some(e),
        Store::Overwrite | Store::Accumulate => None,
    };
    let which = isa();
    // balance the k panels: k = 288 runs as 144+144, not 256+32 (a short
    // trailing panel wastes micro-kernel efficiency on its store phase)
    let kc_target = k.div_ceil(k.div_ceil(KC)).max(1);
    if items == 1 {
        gemm_single(which, a, b, out, m, k, n, kc_target, parallel, ep);
    } else {
        gemm_cyclic(which, a, b, out, spec, kc_target, parallel, ep);
    }
}

/// One blocked product `out += A * B` (`out` already holds the base value).
/// `ep` is applied at store time on the final `k` panel only, so every
/// output element is transformed exactly once.
#[allow(clippy::too_many_arguments)]
fn gemm_single<A: WeightElems>(
    which: Isa,
    a: A,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    kc_target: usize,
    parallel: bool,
    ep: Option<Epilogue<'_>>,
) {
    if !parallel {
        if m <= DIRECT_M_MAX {
            gemm_small_m(which, a, b, out, m, k, n, kc_target, ep);
        } else {
            SCRATCH.with(|cell| {
                let scratch = &mut *cell.borrow_mut();
                let mut pc = 0;
                while pc < k {
                    let kc = kc_target.min(k - pc);
                    let ep_panel = if pc + kc >= k { ep } else { None };
                    pack_b(b, &mut scratch.bpack, pc, kc, n);
                    let mut row0 = 0;
                    while row0 < m {
                        let rows = (MC_TILES * MR).min(m - row0);
                        pack_a(a, &mut scratch.apack, row0, rows, pc, kc, k);
                        let (apack, bpack) = (&scratch.apack, &scratch.bpack);
                        block_multiply(
                            which,
                            apack,
                            bpack,
                            &mut scratch.edge,
                            out,
                            row0,
                            rows,
                            kc,
                            n,
                            ep_panel,
                        );
                        row0 += rows;
                    }
                    pc += kc;
                }
            });
        }
        return;
    }

    // Parallel path: per KC panel, pack B once (shared read-only), then give
    // each pool task a disjoint band of output rows. Tasks pack their own A
    // tiles into short-lived local buffers.
    let threads = hs_parallel::num_threads();
    let tiles = m.div_ceil(MR);
    let tiles_per_band = tiles.div_ceil(threads).max(1);
    let band_rows = tiles_per_band * MR;
    let mut bpack_shared = Vec::new();
    let mut pc = 0;
    while pc < k {
        let kc = kc_target.min(k - pc);
        let ep_panel = if pc + kc >= k { ep } else { None };
        pack_b(b, &mut bpack_shared, pc, kc, n);
        let bpack = &bpack_shared;
        hs_parallel::scope(|s| {
            for (band_idx, out_band) in out[..m * n].chunks_mut(band_rows * n).enumerate() {
                s.spawn(move || {
                    let row0 = band_idx * band_rows;
                    let rows = out_band.len() / n;
                    // bands index their output from row 0, so the epilogue's
                    // row coordinates are re-based to the band start
                    let ep_band = ep_panel.map(|e| e.offset_rows(row0));
                    let mut apack = Vec::new();
                    let mut edge = Vec::new();
                    let mut r = 0;
                    while r < rows {
                        let block = (MC_TILES * MR).min(rows - r);
                        pack_a(a, &mut apack, row0 + r, block, pc, kc, k);
                        // out_band is indexed from its own row 0
                        block_multiply(
                            which, &apack, bpack, &mut edge, out_band, r, block, kc, n, ep_band,
                        );
                        r += block;
                    }
                });
            }
        });
        pc += kc;
    }
}

/// The small-`m` GEMM: `A` is packed (it is reused across every `B` strip),
/// `B` full-width strips are read in place by the direct kernels, and only
/// the ragged `n`-edge strip goes through a small packed panel.
#[allow(clippy::too_many_arguments)]
fn gemm_small_m<A: WeightElems>(
    which: Isa,
    a: A,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    kc_target: usize,
    ep: Option<Epilogue<'_>>,
) {
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let full_strips = n / NR;
        let n_edge = n - full_strips * NR;
        let m_tiles = m.div_ceil(MR);
        let mut pc = 0;
        while pc < k {
            let kc = kc_target.min(k - pc);
            let ep_panel = if pc + kc >= k { ep } else { None };
            pack_a(a, &mut scratch.apack, 0, m, pc, kc, k);
            // ragged right edge of B: pack once per panel, zero-padded
            if n_edge > 0 {
                scratch.bpack.clear();
                scratch.bpack.resize(kc * NR, 0.0);
                let j0 = full_strips * NR;
                for p in 0..kc {
                    let src = &b[(pc + p) * n + j0..(pc + p) * n + n];
                    scratch.bpack[p * NR..p * NR + n_edge].copy_from_slice(src);
                }
            }
            // strips outer, tiles inner: one strip's B window (kc x NR) stays
            // cache-resident while every A tile runs against it
            for js in 0..full_strips {
                let j0 = js * NR;
                for it in 0..m_tiles {
                    let i0 = it * MR;
                    let mr = MR.min(m - i0);
                    let ap = &scratch.apack[it * kc * MR..(it + 1) * kc * MR];
                    let bwin = &b[pc * n + j0..];
                    if mr == MR {
                        run_kernel_direct(
                            which,
                            ap,
                            bwin,
                            n,
                            &mut out[i0 * n + j0..],
                            kc,
                            n,
                            ep_panel.map(|e| e.offset_rows(i0)),
                        );
                    } else {
                        scratch.edge.clear();
                        scratch.edge.resize(MR * NR, 0.0);
                        run_kernel_direct(which, ap, bwin, n, &mut scratch.edge, kc, NR, None);
                        for i in 0..mr {
                            let src = &scratch.edge[i * NR..i * NR + NR];
                            let dst = &mut out[(i0 + i) * n + j0..(i0 + i) * n + j0 + NR];
                            store_edge_row(dst, src, i0 + i, ep_panel);
                        }
                    }
                }
            }
            if n_edge > 0 {
                let j0 = full_strips * NR;
                for it in 0..m_tiles {
                    let i0 = it * MR;
                    let mr = MR.min(m - i0);
                    let ap = &scratch.apack[it * kc * MR..(it + 1) * kc * MR];
                    scratch.edge.clear();
                    scratch.edge.resize(MR * NR, 0.0);
                    run_kernel(which, ap, &scratch.bpack, &mut scratch.edge, kc, NR, None);
                    for i in 0..mr {
                        let src = &scratch.edge[i * NR..i * NR + n_edge];
                        let dst = &mut out[(i0 + i) * n + j0..(i0 + i) * n + n];
                        store_edge_row(dst, src, i0 + i, ep_panel);
                    }
                }
            }
            pc += kc;
        }
    });
}

// ---------------------------------------------------------------------------
// Batched small-GEMM
// ---------------------------------------------------------------------------

/// Walks the per-item segments of columns `[j0, j0 + nr)` of the *virtual
/// column concatenation* of a batch's panels (item `s` contributes columns
/// `[s*n, (s+1)*n)`), calling `f(s, j, off, seg)` for each maximal run that
/// stays inside one item: item index, column within the item, offset within
/// the strip, segment length. Shared by the strip packing and the
/// bounce-buffer scatter, which must agree on this layout exactly.
fn for_each_segment(j0: usize, nr: usize, n: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
    let mut off = 0;
    while off < nr {
        let s = (j0 + off) / n;
        let j = (j0 + off) - s * n;
        let seg = (n - j).min(nr - off);
        f(s, j, off, seg);
        off += seg;
    }
}

/// Packs the whole virtual column concatenation of all batch items' `B`
/// panels (`n_total = batch * n` columns) into `NR`-wide zero-padded strips
/// for `k` rows `[pc, pc + kc)`: `bpack[strip][p][j]`, the batched twin of
/// [`pack_b`].
///
/// This is the n-blocking at the heart of the batched path: several samples'
/// skinny column panels land side by side in one strip, so the register-tiled
/// micro-kernel runs at full `NR` width even when each sample's `n` is far
/// below it.
#[allow(clippy::too_many_arguments)]
fn pack_b_batch(
    bs: &[f32],
    bpack: &mut Vec<f32>,
    pc: usize,
    kc: usize,
    n: usize,
    stride_b: usize,
    n_total: usize,
) {
    let n_strips = n_total.div_ceil(NR);
    bpack.clear();
    bpack.resize(n_strips * kc * NR, 0.0);
    for (js, dst) in bpack.chunks_mut(kc * NR).enumerate() {
        let j0 = js * NR;
        let nr = NR.min(n_total - j0);
        for_each_segment(j0, nr, n, |s, j, off, seg| {
            let base = s * stride_b + pc * n + j;
            for p in 0..kc {
                let src = &bs[base + p * n..base + p * n + seg];
                dst[p * NR + off..p * NR + off + seg].copy_from_slice(src);
            }
        });
    }
}

/// The batched blocked core for one shared `A` panel: `outs[s] += A * B[s]`
/// for `batch` items, with `ep` applied at store time on the final `k` panel.
///
/// `A` is packed **once per k-panel** and every item's columns stream through
/// it; strips of the virtual column concatenation that land fully inside one
/// item's panel store straight into it, strips spanning an item boundary (the
/// normal case when `n < NR`) run full-width into the bounce buffer and
/// scatter per item segment.
#[allow(clippy::too_many_arguments)]
fn gemm_batch_core<A: WeightElems>(
    which: Isa,
    scratch: &mut GemmScratch,
    a: A,
    bs: &[f32],
    outs: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    stride_b: usize,
    stride_out: usize,
    kc_target: usize,
    ep: Option<Epilogue<'_>>,
) {
    let n_total = batch * n;
    let n_strips = n_total.div_ceil(NR);
    let mut pc = 0;
    while pc < k {
        let kc = kc_target.min(k - pc);
        let ep_panel = if pc + kc >= k { ep } else { None };
        // every strip of the whole batch is gather-packed once per k-panel
        // (outside the A row-block loop, like gemm_single's pack_b)
        pack_b_batch(bs, &mut scratch.bpack, pc, kc, n, stride_b, n_total);
        let mut row0 = 0;
        while row0 < m {
            let rows = (MC_TILES * MR).min(m - row0);
            pack_a(a, &mut scratch.apack, row0, rows, pc, kc, k);
            let m_tiles = rows.div_ceil(MR);
            for js in 0..n_strips {
                let j0 = js * NR;
                let nr = NR.min(n_total - j0);
                let bp = &scratch.bpack[js * kc * NR..(js + 1) * kc * NR];
                // a full strip whose columns all belong to one item can store
                // straight into that item's output panel at row stride n
                let s0 = j0 / n;
                let direct = nr == NR && (j0 + NR - 1) / n == s0;
                for it in 0..m_tiles {
                    let i0 = row0 + it * MR;
                    let mr = MR.min(row0 + rows - i0);
                    let ap = &scratch.apack[it * kc * MR..(it + 1) * kc * MR];
                    if direct && mr == MR {
                        let j = j0 - s0 * n;
                        run_kernel(
                            which,
                            ap,
                            bp,
                            &mut outs[s0 * stride_out + i0 * n + j..],
                            kc,
                            n,
                            ep_panel.map(|e| e.offset_rows(i0)),
                        );
                    } else {
                        // boundary-spanning or ragged tile: full-width kernel
                        // into the bounce buffer, then scatter each row's
                        // per-item segments (epilogue applied scalar-wise)
                        scratch.edge.clear();
                        scratch.edge.resize(MR * NR, 0.0);
                        run_kernel(which, ap, bp, &mut scratch.edge, kc, NR, None);
                        for i in 0..mr {
                            let src = &scratch.edge[i * NR..i * NR + nr];
                            for_each_segment(j0, nr, n, |s, j, off, seg| {
                                let base = s * stride_out + (i0 + i) * n + j;
                                store_edge_row(
                                    &mut outs[base..base + seg],
                                    &src[off..off + seg],
                                    i0 + i,
                                    ep_panel,
                                );
                            });
                        }
                    }
                }
            }
            row0 += rows;
        }
        pc += kc;
    }
}

/// The batched path of [`gemm`]: `items` products whose `A` panels cycle
/// with period `groups` (`A_t = a[(t % groups) * stride_a ..]`).
///
/// Per group `g`, the item subsequence `t ≡ g (mod groups)` has uniform
/// strides `groups * stride_b` / `groups * stride_out`, so each group runs
/// the shared-A batched core ([`gemm_batch_core`]): the group's `A` panel is
/// packed once per k-panel and its samples' skinny columns share `NR`-wide
/// strips. The parallel path bands over **samples** (each band covers all
/// groups for a contiguous sample range, so output bands stay contiguous
/// and `chunks_mut`-splittable).
#[allow(clippy::too_many_arguments)]
fn gemm_cyclic<A: WeightElems>(
    which: Isa,
    a: A,
    bs: &[f32],
    outs: &mut [f32],
    spec: &GemmSpec<'_>,
    kc_target: usize,
    parallel: bool,
    ep: Option<Epilogue<'_>>,
) {
    let GemmSpec {
        m,
        k,
        n,
        items,
        groups,
        stride_a,
        stride_b,
        stride_out,
        ..
    } = *spec;
    let per_group = items / groups;
    if !parallel {
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for g in 0..groups {
                gemm_batch_core(
                    which,
                    scratch,
                    a.offset(g * stride_a),
                    &bs[g * stride_b..],
                    &mut outs[g * stride_out..],
                    m,
                    k,
                    n,
                    per_group,
                    groups * stride_b,
                    groups * stride_out,
                    kc_target,
                    ep.map(|e| e.offset_rows(g * m)),
                );
            }
        });
        return;
    }

    // Parallel path: contiguous sample bands (each sample = `groups`
    // consecutive items), every band running all of its groups' shared-A
    // cores with its own short-lived scratch (A is small in the batched
    // regime, so re-packing it per band is cheaper than sharing).
    let bands = hs_parallel::num_threads().min(per_group);
    let band_len = per_group.div_ceil(bands).max(1);
    let outs = &mut outs[..(items - 1) * stride_out + m * n];
    hs_parallel::scope(|sc| {
        for (band, out_band) in outs.chunks_mut(band_len * groups * stride_out).enumerate() {
            sc.spawn(move || {
                let s0 = band * band_len;
                let samples = band_len.min(per_group - s0);
                let mut scratch = GemmScratch::new();
                for g in 0..groups {
                    gemm_batch_core(
                        which,
                        &mut scratch,
                        a.offset(g * stride_a),
                        &bs[(s0 * groups + g) * stride_b..],
                        &mut out_band[g * stride_out..],
                        m,
                        k,
                        n,
                        samples,
                        groups * stride_b,
                        groups * stride_out,
                        kc_target,
                        ep.map(|e| e.offset_rows(g * m)),
                    );
                }
            });
        }
    });
}

/// `out = A * B^T` for row-major `A: [m, k]`, `B: [n, k]`, `out: [m, n]`.
///
/// `B` is the weight operand of the `Linear` inference path, so it may be
/// quantized: it widens to `f32` *during the transpose staging pass* (the
/// i8 scale is folded in there) and the inner [`gemm`] runs all-`f32`. The
/// staging buffer is thread-local, so steady-state calls do not allocate.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` contract.
pub fn gemm_nt(a: &[f32], b: WeightMat<'_>, out: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(
        b.len() >= n * k,
        "B is {} elements, need n*k = {}",
        b.len(),
        n * k
    );
    // Take the scratch out of its cell rather than holding a RefCell borrow
    // across the inner gemm: a parallel gemm's scope may execute unrelated
    // queued tasks on this thread while it waits, and one of those could
    // re-enter gemm_nt/gemm_tn.
    let mut buf = TRANSPOSE_SCRATCH.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
    if buf.len() < k * n {
        buf.resize(k * n, 0.0);
    }
    with_elems!(b, bb => transpose_elems_into(bb, &mut buf, n, k));
    gemm(WeightMat::F32(a), &buf, out, &GemmSpec::new(m, k, n));
    TRANSPOSE_SCRATCH.with(|cell| *cell.borrow_mut() = buf);
}

/// `out = A^T * B` for row-major `A: [k, m]`, `B: [k, n]`, `out: [m, n]`.
///
/// The transpose of `A` is staged in a thread-local scratch buffer, so
/// steady-state calls do not allocate.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` contract.
pub fn gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(
        a.len() >= k * m,
        "A is {} elements, need k*m = {}",
        a.len(),
        k * m
    );
    // see gemm_nt for why the scratch is taken, not borrowed
    let mut buf = TRANSPOSE_SCRATCH.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
    if buf.len() < k * m {
        buf.resize(k * m, 0.0);
    }
    transpose_into(a, &mut buf, k, m);
    gemm(WeightMat::F32(&buf), b, out, &GemmSpec::new(m, k, n));
    TRANSPOSE_SCRATCH.with(|cell| *cell.borrow_mut() = buf);
}

/// Transposes row-major `src: [rows, cols]` into `dst: [cols, rows]`.
///
/// `dst` is overwritten and must hold at least `rows * cols` elements; this
/// is the cheap companion that lets callers express `A^T * B` / `A * B^T`
/// products as [`gemm`] over a reused scratch buffer.
///
/// # Panics
///
/// Panics if either slice is shorter than `rows * cols`.
pub fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    transpose_elems_into(src, dst, rows, cols);
}

/// The generic transpose body behind [`transpose_into`] and the quantized
/// [`gemm_nt`] staging pass: elements widen to `f32` as they are scattered
/// into `dst`.
fn transpose_elems_into<A: WeightElems>(src: A, dst: &mut [f32], rows: usize, cols: usize) {
    assert!(src.len() >= rows * cols, "transpose src too short");
    assert!(dst.len() >= rows * cols, "transpose dst too short");
    // Tiled to keep both sides cache-resident for large matrices.
    const T: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + T).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + T).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src.at(r * cols + c);
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::matmul_naive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, ctx: &str) {
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0),
                "{ctx}: element {i}: {x} vs {y}"
            );
        }
    }

    /// `gemm` over an `f32` `A` operand.
    fn gemm_f32(a: &[f32], b: &[f32], out: &mut [f32], spec: &GemmSpec<'_>) {
        gemm(WeightMat::F32(a), b, out, spec);
    }

    fn accumulate(m: usize, k: usize, n: usize) -> GemmSpec<'static> {
        GemmSpec {
            store: Store::Accumulate,
            ..GemmSpec::new(m, k, n)
        }
    }

    fn with_epilogue<'a>(m: usize, k: usize, n: usize, ep: &Epilogue<'a>) -> GemmSpec<'a> {
        GemmSpec {
            store: Store::Epilogue(*ep),
            ..GemmSpec::new(m, k, n)
        }
    }

    /// `items` products over dense, back-to-back panels.
    fn batch<'a>(
        m: usize,
        k: usize,
        n: usize,
        items: usize,
        groups: usize,
        store: Store<'a>,
    ) -> GemmSpec<'a> {
        GemmSpec {
            items,
            groups,
            store,
            ..GemmSpec::new(m, k, n)
        }
    }

    #[test]
    fn matches_naive_on_square_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        for size in [1usize, 2, 7, 8, 16, 33, 48, 100] {
            let a = random_matrix(&mut rng, size * size);
            let b = random_matrix(&mut rng, size * size);
            let mut expect = vec![0.0; size * size];
            matmul_naive(&a, &b, &mut expect, size, size, size);
            let mut got = vec![0.0; size * size];
            gemm_f32(&a, &b, &mut got, &GemmSpec::new(size, size, size));
            assert_close(&expect, &got, 1e-5, &format!("square {size}"));
        }
    }

    #[test]
    fn matches_naive_on_ragged_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MR - 1, 17, NR - 1),
            (2 * MR + 3, 2 * KC + 5, 2 * NR + 7),
            (64, 1, 64),
            (1, 300, 1),
        ] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut expect = vec![0.0; m * n];
            matmul_naive(&a, &b, &mut expect, m, k, n);
            let mut got = vec![0.0; m * n];
            gemm_f32(&a, &b, &mut got, &GemmSpec::new(m, k, n));
            assert_close(&expect, &got, 1e-5, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn parallel_path_matches_serial_path() {
        let mut rng = StdRng::seed_from_u64(3);
        for (m, k, n) in [(37usize, 65usize, 83usize), (128, 128, 128), (257, 96, 61)] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let spec = GemmSpec::new(m, k, n);
            let mut serial = vec![0.0; m * n];
            gemm_run(a.as_slice(), &b, &mut serial, &spec, false);
            let mut parallel = vec![0.0; m * n];
            gemm_run(a.as_slice(), &b, &mut parallel, &spec, true);
            assert_eq!(serial, parallel, "{m}x{k}x{n} parallel/serial divergence");
        }
    }

    #[test]
    fn accumulate_adds_to_prior_contents() {
        let mut rng = StdRng::seed_from_u64(4);
        let (m, k, n) = (13, 21, 17);
        let a = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let mut once = vec![0.0; m * n];
        gemm_f32(&a, &b, &mut once, &GemmSpec::new(m, k, n));
        let mut twice = vec![0.0; m * n];
        gemm_f32(&a, &b, &mut twice, &accumulate(m, k, n));
        gemm_f32(&a, &b, &mut twice, &accumulate(m, k, n));
        for (o, t) in once.iter().zip(twice.iter()) {
            assert!((2.0 * o - t).abs() < 1e-4);
        }
    }

    #[test]
    fn overwrite_ignores_stale_output() {
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let mut out = vec![999.0f32; 4];
        gemm_f32(&a, &b, &mut out, &GemmSpec::new(2, 2, 2));
        assert_eq!(out, vec![2.0; 4]);
    }

    #[test]
    fn nan_and_inf_propagate() {
        // the seed kernel's `== 0.0` skip silently dropped NaN/Inf from the
        // zero-weight lanes; the GEMM path must keep IEEE semantics
        let a = vec![0.0f32, f32::NAN, 1.0, 2.0];
        let b = vec![1.0f32, 2.0, 3.0, 4.0];
        let mut out = vec![0.0f32; 4];
        gemm_f32(&a, &b, &mut out, &GemmSpec::new(2, 2, 2));
        assert!(
            out[0].is_nan() && out[1].is_nan(),
            "0*NaN must stay NaN: {out:?}"
        );
        assert_eq!(&out[2..], &[7.0, 10.0]);

        let a = vec![1.0f32, f32::INFINITY];
        let b = vec![1.0f32, 0.0];
        let mut out = vec![0.0f32; 1];
        gemm_f32(&a, &b, &mut out, &GemmSpec::new(1, 2, 1));
        assert!(out[0].is_nan(), "1*1 + inf*0 must be NaN: {out:?}");
    }

    #[test]
    fn zero_dimensions_are_safe() {
        let mut out = vec![5.0f32; 6];
        gemm_f32(&[], &[], &mut out, &GemmSpec::new(0, 0, 0));
        gemm_f32(&[], &[], &mut out[..0], &GemmSpec::new(0, 4, 0));
        // k == 0 must yield a zero product
        let mut out = vec![5.0f32; 6];
        gemm_f32(&[], &[], &mut out, &GemmSpec::new(2, 0, 3));
        assert_eq!(out, vec![0.0; 6]);
    }

    /// Scalar reference for the epilogue store: naive matmul, then the
    /// per-row affine + activation applied element-wise.
    fn epilogue_reference(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: &Epilogue<'_>,
    ) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        matmul_naive(a, b, &mut out, m, k, n);
        for i in 0..m {
            for v in out[i * n..(i + 1) * n].iter_mut() {
                *v = ep.act.apply(*v * ep.scale[i] + ep.shift[i]);
            }
        }
        out
    }

    #[test]
    fn epilogue_matches_reference_across_shapes_and_activations() {
        let mut rng = StdRng::seed_from_u64(40);
        let acts = [
            EpilogueAct::None,
            EpilogueAct::Relu,
            EpilogueAct::LeakyRelu(0.1),
            EpilogueAct::Relu6,
        ];
        // shapes covering: full/partial tiles, full/edge strips, the
        // small-m direct path (m <= 64), the packed big-m path, and
        // multi-panel k (> KC)
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (MR, 17, NR),
            (MR + 3, KC + 9, NR + 5),
            (64, 32, 96),
            (65, 40, 50),
            (100, 2 * KC + 5, 2 * NR + 7),
        ] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let scale = random_matrix(&mut rng, m);
            let shift = random_matrix(&mut rng, m);
            for act in acts {
                let ep = Epilogue {
                    scale: &scale,
                    shift: &shift,
                    act,
                };
                let expect = epilogue_reference(&a, &b, m, k, n, &ep);
                // stale output contents must be ignored (overwrite semantics)
                let mut got = vec![777.0; m * n];
                gemm_f32(&a, &b, &mut got, &with_epilogue(m, k, n, &ep));
                assert_close(&expect, &got, 1e-4, &format!("{m}x{k}x{n} {act:?}"));
            }
        }
    }

    #[test]
    fn epilogue_parallel_path_matches_serial_path() {
        let mut rng = StdRng::seed_from_u64(41);
        for (m, k, n) in [(37usize, 65usize, 83usize), (128, 300, 61)] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let scale = random_matrix(&mut rng, m);
            let shift = random_matrix(&mut rng, m);
            let ep = Epilogue {
                scale: &scale,
                shift: &shift,
                act: EpilogueAct::LeakyRelu(0.2),
            };
            let spec = with_epilogue(m, k, n, &ep);
            let mut serial = vec![0.0; m * n];
            gemm_run(a.as_slice(), &b, &mut serial, &spec, false);
            let mut parallel = vec![0.0; m * n];
            gemm_run(a.as_slice(), &b, &mut parallel, &spec, true);
            assert_eq!(
                serial, parallel,
                "{m}x{k}x{n} epilogue parallel/serial divergence"
            );
        }
    }

    #[test]
    fn epilogue_nan_semantics_match_scalar_reference_on_full_and_ragged_tiles() {
        // a NaN in A poisons whole output rows; the SIMD store loops (full
        // tiles) and the scalar bounce path (ragged edge rows/cols) must
        // treat it exactly like EpilogueAct::apply — ReLU maps NaN to 0,
        // LeakyReLU and ReLU6 propagate it
        let mut rng = StdRng::seed_from_u64(42);
        // m = MR+1: rows 0..8 hit the SIMD kernel, row 8 the bounce path;
        // n = NR+1 adds a ragged column strip
        let (m, k, n) = (MR + 1, 19, NR + 1);
        let mut a = random_matrix(&mut rng, m * k);
        a[3 * k + 5] = f32::NAN; // poison row 3 (full tile)
        a[MR * k] = f32::NAN; // poison row 8 (edge tile)
        let b = random_matrix(&mut rng, k * n);
        let scale = random_matrix(&mut rng, m);
        let shift = random_matrix(&mut rng, m);
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
            let expect = epilogue_reference(&a, &b, m, k, n, &ep);
            let mut got = vec![0.0; m * n];
            gemm_f32(&a, &b, &mut got, &with_epilogue(m, k, n, &ep));
            for (i, (e, g)) in expect.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    e.is_nan(),
                    g.is_nan(),
                    "{act:?}: element {i} ({},{}): NaN divergence {e} vs {g}",
                    i / n,
                    i % n
                );
                if !e.is_nan() {
                    assert!(
                        (e - g).abs() <= 1e-4 * e.abs().max(g.abs()).max(1.0),
                        "{act:?}: element {i}: {e} vs {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn epilogue_with_zero_k_applies_shift_and_activation() {
        let scale = vec![2.0f32, 2.0];
        let shift = vec![-1.0f32, 3.0];
        let ep = Epilogue {
            scale: &scale,
            shift: &shift,
            act: EpilogueAct::Relu,
        };
        let mut out = vec![9.0f32; 6];
        gemm_f32(&[], &[], &mut out, &with_epilogue(2, 0, 3, &ep));
        assert_eq!(out, vec![0.0, 0.0, 0.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn epilogue_activations_match_scalar_definition() {
        // one value per interesting regime, through the full GEMM path
        let a = vec![1.0f32; 4]; // 4x1
        let b = vec![1.0f32]; // 1x1
        for (act, input, expect) in [
            (EpilogueAct::Relu, -2.0f32, 0.0f32),
            (EpilogueAct::Relu, 2.0, 2.0),
            (EpilogueAct::LeakyRelu(0.5), -2.0, -1.0),
            (EpilogueAct::Relu6, 9.0, 6.0),
        ] {
            let scale = vec![input; 4];
            let shift = vec![0.0f32; 4];
            let ep = Epilogue {
                scale: &scale,
                shift: &shift,
                act,
            };
            let mut out = vec![0.0f32; 4];
            gemm_f32(&a, &b, &mut out, &with_epilogue(4, 1, 1, &ep));
            for v in out {
                assert_eq!(v, expect, "{act:?}({input})");
            }
        }
    }

    /// Per-item reference for batched specs: item `t` multiplies
    /// `A_{t % groups}` with its own `B` panel through a single-product
    /// [`gemm`], epilogue rows offset by the item's group.
    fn per_item_reference(a: &[f32], bs: &[f32], outs: &mut [f32], spec: &GemmSpec<'_>) {
        let GemmSpec { m, k, n, .. } = *spec;
        for t in 0..spec.items {
            let g = t % spec.groups;
            let a_g = &a[g * spec.stride_a..g * spec.stride_a + m * k];
            let b_t = &bs[t * spec.stride_b..t * spec.stride_b + k * n];
            let out_t = &mut outs[t * spec.stride_out..t * spec.stride_out + m * n];
            let store = match spec.store {
                Store::Epilogue(e) => Store::Epilogue(e.offset_rows(g * m)),
                other => other,
            };
            gemm_f32(
                a_g,
                b_t,
                out_t,
                &GemmSpec {
                    store,
                    ..GemmSpec::new(m, k, n)
                },
            );
        }
    }

    #[test]
    fn batched_matches_per_item_gemm_across_ragged_shapes() {
        let mut rng = StdRng::seed_from_u64(50);
        // (m, k, n, items): n < NR edge tiles, items == 1, full strips,
        // strip-spanning boundaries, multi-panel k, ragged m tiles
        for (m, k, n, items) in [
            (1usize, 1usize, 1usize, 1usize),
            (8, 16, 16, 5),
            (24, 64, 16, 8),
            (17, 33, 7, 9),
            (64, 64, 64, 4),
            (8, KC + 7, 5, 11),
            (MR + 3, 19, NR + 5, 3),
            (3, 5, 2, 1),
        ] {
            // one shared A panel, then one A panel per item
            for groups in [1, items] {
                let a = random_matrix(&mut rng, groups * m * k);
                let bs = random_matrix(&mut rng, items * k * n);
                let spec = batch(m, k, n, items, groups, Store::Overwrite);
                let mut expect = vec![0.0; items * m * n];
                per_item_reference(&a, &bs, &mut expect, &spec);
                // stale output contents must be ignored (overwrite semantics)
                let mut got = vec![777.0; items * m * n];
                gemm_f32(&a, &bs, &mut got, &spec);
                assert_close(
                    &expect,
                    &got,
                    1e-5,
                    &format!("{m}x{k}x{n} items{items} groups{groups}"),
                );
            }
        }
    }

    #[test]
    fn batched_epilogue_matches_per_item_epilogue() {
        let mut rng = StdRng::seed_from_u64(51);
        for (m, k, n, items) in [
            (8usize, 16usize, 16usize, 6usize),
            (13, 40, 9, 7),
            (64, 32, 50, 3),
        ] {
            let a = random_matrix(&mut rng, m * k);
            let bs = random_matrix(&mut rng, items * k * n);
            let scale = random_matrix(&mut rng, m);
            let shift = random_matrix(&mut rng, m);
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
                let spec = batch(m, k, n, items, 1, Store::Epilogue(ep));
                let mut expect = vec![0.0; items * m * n];
                per_item_reference(&a, &bs, &mut expect, &spec);
                let mut got = vec![0.0; items * m * n];
                gemm_f32(&a, &bs, &mut got, &spec);
                assert_close(
                    &expect,
                    &got,
                    1e-4,
                    &format!("{m}x{k}x{n} items{items} {act:?}"),
                );
            }
        }
    }

    #[test]
    fn batched_strided_panels_leave_gaps_untouched() {
        // stride_out > m*n: the elements between output panels must survive,
        // and B panels may sit stride_b > k*n apart (the grouped-conv layout)
        let mut rng = StdRng::seed_from_u64(52);
        let (m, k, n, items) = (5usize, 9usize, 11usize, 4usize);
        let spec = GemmSpec {
            stride_b: k * n + 13,
            stride_out: m * n + 17,
            ..batch(m, k, n, items, 1, Store::Overwrite)
        };
        let a = random_matrix(&mut rng, m * k);
        let bs = random_matrix(&mut rng, (items - 1) * spec.stride_b + k * n);
        let mut expect = vec![-3.5f32; (items - 1) * spec.stride_out + m * n];
        let mut got = expect.clone();
        per_item_reference(&a, &bs, &mut expect, &spec);
        gemm_f32(&a, &bs, &mut got, &spec);
        for (i, (e, g)) in expect.iter().zip(got.iter()).enumerate() {
            assert!(
                (e - g).abs() <= 1e-5 * e.abs().max(1.0),
                "element {i}: {e} vs {g}"
            );
        }
        // the gap elements specifically must still hold the sentinel
        for t in 0..items {
            let gaps = (t * spec.stride_out + m * n)..((t + 1) * spec.stride_out).min(got.len());
            for gap in gaps {
                assert_eq!(got[gap], -3.5, "gap element {gap} clobbered");
            }
        }
    }

    #[test]
    fn batched_accumulate_adds_to_prior_contents() {
        let mut rng = StdRng::seed_from_u64(53);
        let (m, k, n, items) = (6usize, 12usize, 10usize, 5usize);
        let a = random_matrix(&mut rng, m * k);
        let bs = random_matrix(&mut rng, items * k * n);
        let mut once = vec![0.0; items * m * n];
        gemm_f32(
            &a,
            &bs,
            &mut once,
            &batch(m, k, n, items, 1, Store::Overwrite),
        );
        let mut acc = vec![1.0f32; items * m * n];
        gemm_f32(
            &a,
            &bs,
            &mut acc,
            &batch(m, k, n, items, 1, Store::Accumulate),
        );
        for (o, t) in once.iter().zip(acc.iter()) {
            assert!((o + 1.0 - t).abs() < 1e-4, "{t} should be {o} + 1");
        }
    }

    #[test]
    fn batched_parallel_path_matches_serial_path() {
        let mut rng = StdRng::seed_from_u64(54);
        // one shared A panel, then one A panel per item
        for (m, k, n, items, groups) in [
            (16usize, 64usize, 16usize, 13usize, 1usize),
            (8, 48, 5, 32, 32),
        ] {
            let a = random_matrix(&mut rng, groups * m * k);
            let bs = random_matrix(&mut rng, items * k * n);
            let spec = batch(m, k, n, items, groups, Store::Overwrite);
            let mut serial = vec![0.0; items * m * n];
            gemm_run(a.as_slice(), &bs, &mut serial, &spec, false);
            let mut parallel = vec![0.0; items * m * n];
            gemm_run(a.as_slice(), &bs, &mut parallel, &spec, true);
            assert_eq!(
                serial, parallel,
                "{m}x{k}x{n} items{items} groups{groups} parallel/serial divergence"
            );
        }
    }

    #[test]
    fn batched_nan_stays_inside_its_sample() {
        // a NaN in sample 1's B panel must poison only sample 1's output,
        // even though the n-blocked strips pack samples side by side into
        // one register tile
        let mut rng = StdRng::seed_from_u64(55);
        let (m, k, n, items) = (MR, 10usize, 6usize, 4usize);
        let spec = batch(m, k, n, items, 1, Store::Overwrite);
        let a = random_matrix(&mut rng, m * k);
        let mut bs = random_matrix(&mut rng, items * k * n);
        bs[k * n + 3] = f32::NAN; // sample 1, row 0, col 3
        let mut out = vec![0.0; items * m * n];
        gemm_f32(&a, &bs, &mut out, &spec);
        for s in 0..items {
            let panel = &out[s * m * n..(s + 1) * m * n];
            if s == 1 {
                assert!(
                    panel.iter().any(|v| v.is_nan()),
                    "sample 1 must carry the NaN"
                );
            } else {
                assert!(
                    panel.iter().all(|v| !v.is_nan()),
                    "sample {s} polluted by sample 1's NaN"
                );
            }
        }
        // ...and a NaN in the shared A poisons every sample
        let mut a_nan = a.clone();
        a_nan[2 * k] = f32::NAN; // row 2
        let bs_clean = random_matrix(&mut rng, items * k * n);
        let mut out = vec![0.0; items * m * n];
        gemm_f32(&a_nan, &bs_clean, &mut out, &spec);
        for s in 0..items {
            let row2 = &out[s * m * n + 2 * n..s * m * n + 3 * n];
            assert!(
                row2.iter().all(|v| v.is_nan()),
                "sample {s} row 2 must be NaN"
            );
        }
    }

    #[test]
    fn batched_zero_dimensions_are_safe() {
        let b = vec![1.0f32; 12];
        let mut out = vec![5.0f32; 12];
        // m == 0 stores nothing; items == 0 is a no-op
        gemm_f32(&[], &b, &mut out, &batch(0, 3, 2, 2, 1, Store::Overwrite));
        gemm_f32(
            &[],
            &[],
            &mut out[..0],
            &batch(2, 3, 2, 0, 1, Store::Overwrite),
        );
        assert_eq!(out, vec![5.0; 12]);
        // k == 0 overwrites with zeros (and still applies an epilogue)
        let mut out = vec![5.0f32; 12];
        gemm_f32(&[], &[], &mut out, &batch(2, 0, 3, 2, 1, Store::Overwrite));
        assert_eq!(out, vec![0.0; 12]);
        let scale = vec![1.0f32; 2];
        let shift = vec![2.0f32, -4.0];
        let ep = Epilogue {
            scale: &scale,
            shift: &shift,
            act: EpilogueAct::Relu,
        };
        let mut out = vec![5.0f32; 12];
        gemm_f32(
            &[],
            &[],
            &mut out,
            &batch(2, 0, 3, 2, 1, Store::Epilogue(ep)),
        );
        assert_eq!(
            out,
            vec![2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn cyclic_matches_per_item_reference_across_shapes() {
        let mut rng = StdRng::seed_from_u64(60);
        // (m, k, n, groups, per_group): skinny n below NR, strip-spanning
        // boundaries, single group (== shared-A batched), single sample
        for (m, k, n, groups, per_group) in [
            (4usize, 9usize, 4usize, 4usize, 6usize),
            (8, 16, 16, 2, 5),
            (3, 5, 2, 3, 1),
            (16, 32, 7, 1, 9),
            (MR + 1, 21, NR + 3, 2, 3),
        ] {
            let items = groups * per_group;
            let spec = batch(m, k, n, items, groups, Store::Overwrite);
            let a = random_matrix(&mut rng, groups * m * k);
            let bs = random_matrix(&mut rng, items * k * n);
            let mut expect = vec![0.0; items * m * n];
            per_item_reference(&a, &bs, &mut expect, &spec);
            // stale output contents must be ignored (overwrite semantics)
            let mut got = vec![777.0; items * m * n];
            gemm_f32(&a, &bs, &mut got, &spec);
            assert_close(
                &expect,
                &got,
                1e-5,
                &format!("{m}x{k}x{n} g{groups} items{items}"),
            );
        }
    }

    #[test]
    fn cyclic_epilogue_selects_per_group_rows() {
        let mut rng = StdRng::seed_from_u64(61);
        let (m, k, n, groups, per_group) = (5usize, 12usize, 6usize, 3usize, 4usize);
        let items = groups * per_group;
        let a = random_matrix(&mut rng, groups * m * k);
        let bs = random_matrix(&mut rng, items * k * n);
        // distinct scale/shift per group so a row-offset mistake shows up
        let scale = random_matrix(&mut rng, groups * m);
        let shift = random_matrix(&mut rng, groups * m);
        for act in [EpilogueAct::None, EpilogueAct::Relu, EpilogueAct::Relu6] {
            let ep = Epilogue {
                scale: &scale,
                shift: &shift,
                act,
            };
            let spec = batch(m, k, n, items, groups, Store::Epilogue(ep));
            let mut expect = vec![0.0; items * m * n];
            per_item_reference(&a, &bs, &mut expect, &spec);
            let mut got = vec![0.0; items * m * n];
            gemm_f32(&a, &bs, &mut got, &spec);
            assert_close(&expect, &got, 1e-4, &format!("{act:?}"));
        }
    }

    #[test]
    fn cyclic_accumulate_with_shared_a_panel() {
        let mut rng = StdRng::seed_from_u64(62);
        let (m, k, n, groups, per_group) = (4usize, 8usize, 5usize, 2usize, 3usize);
        let items = groups * per_group;
        // stride_a == 0: every group shares one A panel
        let spec = GemmSpec {
            stride_a: 0,
            ..batch(m, k, n, items, groups, Store::Accumulate)
        };
        let a = random_matrix(&mut rng, m * k);
        let bs = random_matrix(&mut rng, items * k * n);
        let init = random_matrix(&mut rng, items * m * n);
        let mut expect = init.clone();
        per_item_reference(&a, &bs, &mut expect, &spec);
        let mut got = init;
        gemm_f32(&a, &bs, &mut got, &spec);
        assert_close(&expect, &got, 1e-5, "cyclic accumulate shared A");
    }

    #[test]
    fn cyclic_parallel_path_matches_serial_path() {
        let mut rng = StdRng::seed_from_u64(63);
        let (m, k, n, groups, per_group) = (8usize, 24usize, 9usize, 4usize, 16usize);
        let items = groups * per_group;
        let spec = batch(m, k, n, items, groups, Store::Overwrite);
        let a = random_matrix(&mut rng, groups * m * k);
        let bs = random_matrix(&mut rng, items * k * n);
        let mut serial = vec![0.0; items * m * n];
        gemm_run(a.as_slice(), &bs, &mut serial, &spec, false);
        let mut parallel = vec![0.0; items * m * n];
        gemm_run(a.as_slice(), &bs, &mut parallel, &spec, true);
        assert_eq!(serial, parallel, "band split must not change results");
    }

    #[test]
    #[should_panic(expected = "must be a multiple of groups")]
    fn cyclic_rejects_ragged_group_batches() {
        let a = vec![0.0f32; 8];
        let b = vec![0.0f32; 20];
        let mut out = vec![0.0f32; 10];
        gemm_f32(&a, &b, &mut out, &batch(2, 2, 2, 5, 2, Store::Overwrite));
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = StdRng::seed_from_u64(5);
        for (r, c) in [(1usize, 1usize), (3, 8), (31, 33), (64, 65)] {
            let src = random_matrix(&mut rng, r * c);
            let mut t = vec![0.0; r * c];
            transpose_into(&src, &mut t, r, c);
            let mut back = vec![0.0; r * c];
            transpose_into(&t, &mut back, c, r);
            assert_eq!(src, back, "{r}x{c}");
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[j * r + i], src[i * c + j]);
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // Quantized A operands: convert-on-pack must equal quantize-then-f32-GEMM
    // exactly (the widened values are identical bit patterns).
    // -----------------------------------------------------------------------

    fn quantize_f16(w: &[f32]) -> Vec<u16> {
        w.iter()
            .map(|&v| crate::dtype::f32_to_f16_bits(v))
            .collect()
    }

    fn widen_f16(bits: &[u16]) -> Vec<f32> {
        bits.iter()
            .map(|&h| crate::dtype::f16_bits_to_f32(h))
            .collect()
    }

    #[test]
    fn f16_epilogue_equals_widened_f32_gemm() {
        let mut rng = StdRng::seed_from_u64(11);
        for (m, k, n) in [
            (5usize, 9usize, 7usize),
            (MR, KC, NR),
            (70, 33, 50),
            (97, 64, 13),
        ] {
            let w = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let bits = quantize_f16(&w);
            let wide = widen_f16(&bits);
            let scale: Vec<f32> = (0..m).map(|i| 0.5 + 0.01 * i as f32).collect();
            let shift: Vec<f32> = (0..m).map(|i| -0.2 + 0.02 * i as f32).collect();
            let ep = Epilogue {
                scale: &scale,
                shift: &shift,
                act: EpilogueAct::LeakyRelu(0.1),
            };
            let spec = with_epilogue(m, k, n, &ep);
            let mut expect = vec![0.0; m * n];
            gemm_f32(&wide, &b, &mut expect, &spec);
            let mut got = vec![1.0; m * n];
            gemm(WeightMat::F16(&bits), &b, &mut got, &spec);
            assert_eq!(expect, got, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn i8_accumulate_equals_dequantized_f32_gemm() {
        let mut rng = StdRng::seed_from_u64(12);
        let (m, k, n) = (23usize, 31usize, 19usize);
        let w = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let scale = crate::dtype::i8_scale(&w);
        let q: Vec<i8> = w
            .iter()
            .map(|&v| crate::dtype::f32_to_i8(v, scale))
            .collect();
        let deq: Vec<f32> = q.iter().map(|&v| v as f32 * scale).collect();
        let mut expect = vec![0.25; m * n];
        gemm_f32(&deq, &b, &mut expect, &accumulate(m, k, n));
        let mut got = vec![0.25; m * n];
        gemm(
            WeightMat::I8 { data: &q, scale },
            &b,
            &mut got,
            &accumulate(m, k, n),
        );
        assert_eq!(expect, got);
    }

    #[test]
    fn gemm_nt_f16_equals_widened_gemm_nt() {
        let mut rng = StdRng::seed_from_u64(13);
        for (m, k, n) in [(4usize, 12usize, 10usize), (32, 64, 48), (1, 100, 257)] {
            let a = random_matrix(&mut rng, m * k);
            let w = random_matrix(&mut rng, n * k);
            let bits = quantize_f16(&w);
            let wide = widen_f16(&bits);
            let mut expect = vec![0.0; m * n];
            gemm_nt(&a, WeightMat::F32(&wide), &mut expect, m, k, n);
            let mut got = vec![0.0; m * n];
            gemm_nt(&a, WeightMat::F16(&bits), &mut got, m, k, n);
            assert_eq!(expect, got, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn cyclic_f16_equals_widened_cyclic_both_paths() {
        let mut rng = StdRng::seed_from_u64(14);
        let (m, k, n, groups, samples) = (6usize, 18usize, 11usize, 3usize, 8usize);
        let items = groups * samples;
        let w = random_matrix(&mut rng, groups * m * k);
        let bs = random_matrix(&mut rng, items * k * n);
        let bits = quantize_f16(&w);
        let wide = widen_f16(&bits);
        let scale: Vec<f32> = (0..groups * m).map(|i| 0.8 + 0.01 * i as f32).collect();
        let shift: Vec<f32> = (0..groups * m).map(|i| 0.1 * i as f32).collect();
        let ep = Epilogue {
            scale: &scale,
            shift: &shift,
            act: EpilogueAct::Relu,
        };
        let spec = batch(m, k, n, items, groups, Store::Epilogue(ep));
        for parallel in [false, true] {
            let mut expect = vec![0.0; items * m * n];
            gemm_run(&wide[..], &bs, &mut expect, &spec, parallel);
            let mut got = vec![0.5; items * m * n];
            gemm_run(F16Elems(&bits), &bs, &mut got, &spec, parallel);
            assert_eq!(expect, got, "parallel={parallel}");
        }
        // accumulate: a bias-style initial value is preserved
        let spec = batch(m, k, n, items, groups, Store::Accumulate);
        let mut expect = vec![0.3; items * m * n];
        gemm_f32(&wide, &bs, &mut expect, &spec);
        let mut got = vec![0.3; items * m * n];
        gemm(WeightMat::F16(&bits), &bs, &mut got, &spec);
        assert_eq!(expect, got);
    }

    #[test]
    fn weight_mat_slice_matches_slice_semantics() {
        let w: Vec<f32> = (0..12).map(|x| x as f32).collect();
        let bits = quantize_f16(&w);
        let mat = WeightMat::F16(&bits);
        assert_eq!(mat.len(), 12);
        assert_eq!(mat.dtype(), crate::dtype::DType::F16);
        let sub = mat.slice(4, 8);
        assert_eq!(sub.len(), 4);
        match sub {
            WeightMat::F16(s) => assert_eq!(s, &bits[4..8]),
            _ => panic!("slice changed dtype"),
        }
    }
}

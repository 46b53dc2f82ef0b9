//! The versioned binary checkpoint format: how a trained [`Network`]'s
//! weights reach disk and come back bit-exact.
//!
//! # Format v2 (all integers little-endian, see `serde::bin`)
//!
//! ```text
//! magic            8 bytes   b"HSNNCKPT"
//! format version   u32       currently 2
//! fingerprint      u64       FNV-1a over the layer topology (below)
//! param tensors    u64       number of stored parameter tensors
//! per param tensor (in layer order):
//!   dtype tag      u8        0 = f32, 1 = f16, 2 = i8
//!   element count  u64
//!   payload        f32: f32 bits × n · f16: u16 bits × n · i8: scale f32 + i8 × n
//!   checksum       u32       CRC-32 (IEEE) over the payload bytes
//! buffer count     u64       number of named buffer tensors
//! per buffer:
//!   name           u32 len + UTF-8 bytes (diagnostic, not validated)
//!   rank           u32
//!   dims           u32 × rank
//!   data           f32 × prod(dims)
//!   checksum       u32       CRC-32 (IEEE) over the data bytes
//! ```
//!
//! Version 1 (the PR 2 format: one flat f32 parameter vector, no per-tensor
//! dtype tags, no checksums) is still **read** — a v1 f32 checkpoint loads
//! byte-exactly into an f32 network, and quantize-on-load into a
//! [`Network::to_dtype`]-converted replica. Saving always emits v2.
//!
//! The **fingerprint** hashes the parameter and buffer *shapes* in layer
//! order — the same topology signature [`Network::set_weights`] implicitly
//! relies on. It walks [`Network::param_stores`], so it is identical before
//! and after quantization (quantized weights occupy the same positions with
//! the same shapes), and it deliberately excludes layer names, so a
//! checkpoint saved from a plain model loads into its
//! [`Network::fuse_inference`]d replica (fusion keeps parameter/buffer order
//! and shapes — pinned since PR 2) and vice versa. Dtype is likewise
//! excluded: an f32 checkpoint loads into an f16 replica (quantize-on-load,
//! the serving hot-swap case) and a quantized checkpoint widens into an f32
//! network. Buffer names are carried for diagnostics
//! (`layer3.batch_norm2d.buf0`) but loading validates shapes, not names,
//! for the same reason.
//!
//! Floats are stored as raw bit patterns, so a save → load round trip is
//! exact to the bit (NaN payloads included, f16/i8 payloads too) and the
//! byte stream is identical across platforms —
//! `checkpoint_header_is_byte_stable` pins the header.
//!
//! Loading validates magic, version, fingerprint, every length and every
//! checksum before touching the model, and returns a [`CheckpointError`]
//! naming exactly what went wrong; the network is never partially
//! overwritten by a failed load.

use crate::{Layer, Network, ParamStore};
use hs_tensor::{
    f16_bits_to_f32, DType, F16Storage, I8Storage, QTensor, Tensor, TensorBase, WeightMat,
};
use serde::bin::{ByteReader, ByteWriter, TruncatedInput};
use std::fmt;
use std::path::Path;

/// First 8 bytes of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"HSNNCKPT";

/// Current format version (written on save; versions 1 and 2 both load).
pub const CHECKPOINT_VERSION: u32 = 2;

/// Dtype tags used in the v2 per-tensor headers.
const TAG_F32: u8 = 0;
const TAG_F16: u8 = 1;
const TAG_I8: u8 = 2;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), bitwise — checkpoints are
/// megabytes at most, so a lookup table buys nothing worth its cache lines.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Why a checkpoint failed to load. Every variant's `Display` says what was
/// found, what was expected, and what to do about it.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error while reading or writing.
    Io(std::io::Error),
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic {
        /// The first bytes actually found (at most 8).
        found: Vec<u8>,
    },
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// Version read from the file.
        found: u32,
    },
    /// The checkpoint was saved from a structurally different model.
    FingerprintMismatch {
        /// Fingerprint of the loading network.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// The flat parameter vector has the wrong length.
    ParamCountMismatch {
        /// Scalar count the loading network needs.
        expected: u64,
        /// Scalar count stored in the checkpoint.
        found: u64,
    },
    /// The checkpoint stores a different number of buffers.
    BufferCountMismatch {
        /// Buffer count the loading network has.
        expected: u64,
        /// Buffer count stored in the checkpoint.
        found: u64,
    },
    /// A buffer's stored shape does not match the loading network's.
    BufferShapeMismatch {
        /// Name stored in the checkpoint for the offending buffer.
        name: String,
        /// Shape the loading network expects.
        expected: Vec<usize>,
        /// Shape stored in the checkpoint.
        found: Vec<usize>,
    },
    /// A stored tensor's dtype tag is not one this build understands.
    UnknownDType {
        /// The tag byte actually found.
        found: u8,
    },
    /// A stored payload's CRC-32 does not match its recorded checksum: the
    /// file's contents were altered after saving (bit rot, partial
    /// overwrite, tampering).
    CrcMismatch {
        /// Which tensor failed (`param3`, or a buffer's diagnostic name).
        name: String,
        /// Checksum recorded in the checkpoint.
        expected: u32,
        /// Checksum computed from the payload actually read.
        found: u32,
    },
    /// The file ends before the format says it should.
    Truncated(TruncatedInput),
    /// Bytes remain after the last buffer — the file is longer than the
    /// format describes (corrupt, or concatenated with something else).
    TrailingBytes {
        /// Number of unread bytes.
        extra: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic { found } => write!(
                f,
                "not a checkpoint: file starts with {found:02x?} instead of the \
                 {CHECKPOINT_MAGIC:02x?} magic (b\"HSNNCKPT\") — is this the right file?"
            ),
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "checkpoint format version {found} is newer than the supported \
                 version {CHECKPOINT_VERSION}; upgrade this binary or re-save the \
                 checkpoint with a matching build"
            ),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint topology fingerprint {found:#018x} does not match this \
                 model's {expected:#018x}: the checkpoint was saved from a different \
                 architecture (or width/depth configuration) — load it into a replica \
                 built by the same constructor"
            ),
            CheckpointError::ParamCountMismatch { expected, found } => write!(
                f,
                "checkpoint stores {found} parameter values but this model expects \
                 {expected} — architecture mismatch the fingerprint did not catch"
            ),
            CheckpointError::BufferCountMismatch { expected, found } => write!(
                f,
                "checkpoint stores {found} buffers but this model has {expected} — \
                 architecture mismatch the fingerprint did not catch"
            ),
            CheckpointError::BufferShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "checkpoint buffer {name:?} has shape {found:?} but this model \
                 expects {expected:?}"
            ),
            CheckpointError::UnknownDType { found } => write!(
                f,
                "checkpoint stores a tensor with dtype tag {found} but this build \
                 only understands 0 (f32), 1 (f16) and 2 (i8) — the file is corrupt \
                 or from a newer format revision"
            ),
            CheckpointError::CrcMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "checkpoint tensor {name:?} fails its integrity check: stored \
                 CRC-32 {expected:#010x}, computed {found:#010x} — the file was \
                 corrupted after saving; re-fetch or re-save it"
            ),
            CheckpointError::Truncated(t) => write!(
                f,
                "checkpoint is truncated: {t} — the file was cut short (partial \
                 download or interrupted save); re-fetch or re-save it"
            ),
            CheckpointError::TrailingBytes { extra } => write!(
                f,
                "checkpoint has {extra} unexpected trailing byte(s) after the last \
                 buffer — the file is corrupt or not a single checkpoint"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Truncated(t) => Some(t),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<TruncatedInput> for CheckpointError {
    fn from(t: TruncatedInput) -> Self {
        CheckpointError::Truncated(t)
    }
}

/// One parameter tensor decoded from a checkpoint, staged before commit so
/// a validation failure later in the file leaves the network untouched.
enum StagedTensor {
    F32(Vec<f32>),
    F16(Vec<u16>),
    I8 { data: Vec<i8>, scale: f32 },
}

impl StagedTensor {
    /// Widens the staged payload to f32 (exact for f32, dequantized
    /// otherwise) — the cross-dtype commit route.
    fn to_f32(&self) -> Vec<f32> {
        match self {
            StagedTensor::F32(v) => v.clone(),
            StagedTensor::F16(bits) => bits.iter().map(|&b| f16_bits_to_f32(b)).collect(),
            StagedTensor::I8 { data, scale } => data.iter().map(|&q| q as f32 * scale).collect(),
        }
    }
}

/// Commits f32 data into a store: bit-exact copy for f32 stores,
/// quantize-on-load for quantized ones (the serving hot-swap case — an f32
/// training checkpoint lands in an f16/i8 replica).
fn commit_f32(store: ParamStore<'_>, data: &[f32]) {
    match store {
        ParamStore::F32(p) => p.value.as_mut_slice().copy_from_slice(data),
        ParamStore::Quant(q) => {
            let dims = q.dims().to_vec();
            *q = QTensor::quantize(&Tensor::from_vec(data.to_vec(), &dims), q.dtype())
                .expect("a quantized store never has dtype f32");
        }
    }
}

/// Commits a staged tensor into a store. Same-dtype pairs restore the raw
/// payload bit-exactly; everything else routes through f32.
fn commit_staged(store: ParamStore<'_>, staged: StagedTensor) {
    match (store, staged) {
        (ParamStore::F32(p), StagedTensor::F32(v)) => {
            p.value.as_mut_slice().copy_from_slice(&v);
        }
        (ParamStore::Quant(q), StagedTensor::F16(bits)) if q.dtype() == DType::F16 => {
            let dims = q.dims().to_vec();
            *q = QTensor::F16(TensorBase::from_storage(F16Storage::from_bits(bits), &dims));
        }
        (ParamStore::Quant(q), StagedTensor::I8 { data, scale }) if q.dtype() == DType::I8 => {
            let dims = q.dims().to_vec();
            *q = QTensor::I8(TensorBase::from_storage(
                I8Storage::from_parts(data, scale),
                &dims,
            ));
        }
        (store, staged) => commit_f32(store, &staged.to_f32()),
    }
}

/// Incremental FNV-1a (64-bit) over the topology description.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn push_u64(&mut self, v: u64) {
        self.push(&v.to_le_bytes());
    }
}

impl Network {
    /// The layer-topology fingerprint: FNV-1a over every parameter shape and
    /// every buffer shape in layer order. Two networks with the same
    /// fingerprint accept each other's weight vectors; fusion
    /// ([`Network::fuse_inference`]) does not change it because fusion keeps
    /// parameter/buffer order and shapes, and quantization
    /// ([`Network::to_dtype`]) does not either because the walk goes through
    /// [`Network::param_stores`], where quantized weights keep their
    /// position and shape.
    pub fn fingerprint(&mut self) -> u64 {
        let mut h = Fnv::new();
        let stores = self.param_stores();
        h.push_u64(stores.len() as u64);
        for s in &stores {
            let dims = s.dims();
            h.push_u64(dims.len() as u64);
            for &d in dims {
                h.push_u64(d as u64);
            }
        }
        drop(stores);
        let buffers = self.buffers_mut();
        h.push_u64(buffers.len() as u64);
        for b in buffers {
            let dims = b.dims();
            h.push_u64(dims.len() as u64);
            for &d in dims {
                h.push_u64(d as u64);
            }
        }
        h.0
    }

    /// The diagnostic names paired with each buffer, in buffer order:
    /// `layer{i}.{layer name}.buf{j}` where `i` indexes the top-level layer
    /// stack (composite blocks contribute all their nested buffers under the
    /// block's name).
    fn buffer_names(&mut self) -> Vec<String> {
        let mut names = Vec::new();
        for (i, layer) in self.layers.children_mut().into_iter().enumerate() {
            let lname = layer.name();
            for j in 0..layer.buffers_mut().len() {
                names.push(format!("layer{i}.{lname}.buf{j}"));
            }
        }
        names
    }

    /// Serialises the network into checkpoint bytes (see the module docs for
    /// the exact layout — always the current format version). Byte-stable:
    /// the same weights always produce the same bytes.
    pub fn to_checkpoint_bytes(&mut self) -> Vec<u8> {
        let fingerprint = self.fingerprint();
        let names = self.buffer_names();
        let mut w = ByteWriter::new();
        w.put_bytes(&CHECKPOINT_MAGIC);
        w.put_u32(CHECKPOINT_VERSION);
        w.put_u64(fingerprint);

        let stores = self.param_stores();
        w.put_u64(stores.len() as u64);
        for store in stores {
            let mut payload = ByteWriter::new();
            let tag = match &store {
                ParamStore::F32(p) => {
                    payload.put_f32_slice(p.value.as_slice());
                    TAG_F32
                }
                ParamStore::Quant(q) => match q.as_mat() {
                    WeightMat::F16(bits) => {
                        for &b in bits {
                            payload.put_bytes(&b.to_le_bytes());
                        }
                        TAG_F16
                    }
                    WeightMat::I8 { data, scale } => {
                        payload.put_f32(scale);
                        for &v in data {
                            payload.put_bytes(&[v as u8]);
                        }
                        TAG_I8
                    }
                    // QTensor::as_mat only yields quantized views
                    WeightMat::F32(_) => unreachable!("quantized store with f32 view"),
                },
            };
            w.put_bytes(&[tag]);
            w.put_u64(store.len() as u64);
            let payload = payload.into_bytes();
            let crc = crc32(&payload);
            w.put_bytes(&payload);
            w.put_u32(crc);
        }

        let buffers = self.buffers_mut();
        w.put_u64(buffers.len() as u64);
        for (b, name) in buffers.into_iter().zip(&names) {
            w.put_str(name);
            let dims = b.dims();
            w.put_u32(dims.len() as u32);
            for &d in dims {
                w.put_u32(d as u32);
            }
            let mut payload = ByteWriter::new();
            payload.put_f32_slice(b.as_slice());
            let payload = payload.into_bytes();
            let crc = crc32(&payload);
            w.put_bytes(&payload);
            w.put_u32(crc);
        }
        w.into_bytes()
    }

    /// Restores the network from checkpoint bytes produced by
    /// [`Network::to_checkpoint_bytes`] on a structurally identical network
    /// (fused or not).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] — without modifying the network — when
    /// the magic, version, fingerprint, any count or any shape does not
    /// match, or the input is truncated.
    pub fn load_checkpoint_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let magic = r
            .get_bytes(8, "magic")
            .map_err(|_| CheckpointError::BadMagic {
                found: bytes.to_vec(),
            })?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic {
                found: magic.to_vec(),
            });
        }
        let version = r.get_u32("format version")?;
        if version != 1 && version != 2 {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let fingerprint = r.get_u64("fingerprint")?;
        let expected_fp = self.fingerprint();
        if fingerprint != expected_fp {
            return Err(CheckpointError::FingerprintMismatch {
                expected: expected_fp,
                found: fingerprint,
            });
        }

        // stage every parameter tensor before touching the model
        let expected_lens: Vec<usize> = self.param_stores().iter().map(|s| s.len()).collect();
        let staged_params: Vec<StagedTensor> = if version == 1 {
            // v1: one flat f32 vector, split at the store boundaries
            let n_params = r.get_u64("parameter scalar count")?;
            let total: usize = expected_lens.iter().sum();
            if n_params != total as u64 {
                return Err(CheckpointError::ParamCountMismatch {
                    expected: total as u64,
                    found: n_params,
                });
            }
            let flat = r.get_f32_vec(n_params as usize, "parameter data")?;
            let mut offset = 0;
            expected_lens
                .iter()
                .map(|&n| {
                    let chunk = flat[offset..offset + n].to_vec();
                    offset += n;
                    StagedTensor::F32(chunk)
                })
                .collect()
        } else {
            let n_tensors = r.get_u64("parameter tensor count")?;
            if n_tensors != expected_lens.len() as u64 {
                return Err(CheckpointError::ParamCountMismatch {
                    expected: expected_lens.len() as u64,
                    found: n_tensors,
                });
            }
            let mut staged = Vec::with_capacity(expected_lens.len());
            for (i, &len_expected) in expected_lens.iter().enumerate() {
                let tag = r.get_bytes(1, "parameter dtype tag")?[0];
                let len = r.get_u64("parameter element count")? as usize;
                if len != len_expected {
                    return Err(CheckpointError::ParamCountMismatch {
                        expected: len_expected as u64,
                        found: len as u64,
                    });
                }
                let payload_len = match tag {
                    TAG_F32 => len.checked_mul(4),
                    TAG_F16 => len.checked_mul(2),
                    TAG_I8 => len.checked_add(4),
                    t => return Err(CheckpointError::UnknownDType { found: t }),
                }
                .ok_or(CheckpointError::Truncated(TruncatedInput {
                    expected: "parameter payload",
                    offset: r.offset(),
                }))?;
                let payload = r.get_bytes(payload_len, "parameter payload")?;
                let stored = r.get_u32("parameter checksum")?;
                let computed = crc32(payload);
                if computed != stored {
                    return Err(CheckpointError::CrcMismatch {
                        name: format!("param{i}"),
                        expected: stored,
                        found: computed,
                    });
                }
                staged.push(match tag {
                    TAG_F32 => StagedTensor::F32(
                        payload
                            .chunks_exact(4)
                            .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
                            .collect(),
                    ),
                    TAG_F16 => StagedTensor::F16(
                        payload
                            .chunks_exact(2)
                            .map(|b| u16::from_le_bytes([b[0], b[1]]))
                            .collect(),
                    ),
                    _ => StagedTensor::I8 {
                        scale: f32::from_bits(u32::from_le_bytes([
                            payload[0], payload[1], payload[2], payload[3],
                        ])),
                        data: payload[4..].iter().map(|&b| b as i8).collect(),
                    },
                });
            }
            staged
        };

        let n_buffers = r.get_u64("buffer count")?;
        let expected_buffers = self.buffers_mut().len();
        if n_buffers != expected_buffers as u64 {
            return Err(CheckpointError::BufferCountMismatch {
                expected: expected_buffers as u64,
                found: n_buffers,
            });
        }
        // stage every buffer too, so a shape mismatch, checksum failure or
        // truncation midway leaves the network untouched
        let expected_dims: Vec<Vec<usize>> = self
            .buffers_mut()
            .iter()
            .map(|b| b.dims().to_vec())
            .collect();
        let mut staged: Vec<Vec<f32>> = Vec::with_capacity(expected_buffers);
        for dims_expected in &expected_dims {
            let name = r.get_str("buffer name")?;
            let rank = r.get_u32("buffer rank")? as usize;
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                dims.push(r.get_u32("buffer dims")? as usize);
            }
            if &dims != dims_expected {
                return Err(CheckpointError::BufferShapeMismatch {
                    name,
                    expected: dims_expected.clone(),
                    found: dims,
                });
            }
            let len: usize = dims.iter().product();
            if version == 1 {
                staged.push(r.get_f32_vec(len, "buffer data")?);
            } else {
                let payload = r.get_bytes(
                    len.checked_mul(4)
                        .ok_or(CheckpointError::Truncated(TruncatedInput {
                            expected: "buffer data",
                            offset: r.offset(),
                        }))?,
                    "buffer data",
                )?;
                let stored = r.get_u32("buffer checksum")?;
                let computed = crc32(payload);
                if computed != stored {
                    return Err(CheckpointError::CrcMismatch {
                        name,
                        expected: stored,
                        found: computed,
                    });
                }
                staged.push(
                    payload
                        .chunks_exact(4)
                        .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
                        .collect(),
                );
            }
        }
        if r.remaining() > 0 {
            return Err(CheckpointError::TrailingBytes {
                extra: r.remaining(),
            });
        }

        // all validated: commit
        for (store, tensor) in self.param_stores().into_iter().zip(staged_params) {
            commit_staged(store, tensor);
        }
        for (b, data) in self.buffers_mut().into_iter().zip(staged) {
            b.as_mut_slice().copy_from_slice(&data);
        }
        Ok(())
    }

    /// Writes the checkpoint to `path` (creating parent directories), via an
    /// adjacent temporary file and an atomic rename so readers never observe
    /// a half-written checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_checkpoint(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.to_checkpoint_bytes();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // append to the full file name (with_extension would REPLACE the
        // last extension, so model.v1 / model.v2 would collide on one tmp)
        let mut tmp_name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "checkpoint".into());
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and loads a checkpoint written by [`Network::save_checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on I/O failure or any validation
    /// failure (see [`Network::load_checkpoint_bytes`]).
    pub fn load_checkpoint(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = std::fs::read(path)?;
        self.load_checkpoint_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(Sequential::new(vec![
            Box::new(Linear::new(3, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 2, &mut rng)),
        ]))
    }

    #[test]
    fn bytes_round_trip_bit_exact() {
        let mut a = net(1);
        let mut b = net(2);
        let bytes = a.to_checkpoint_bytes();
        b.load_checkpoint_bytes(&bytes).unwrap();
        let wa: Vec<u32> = a.weights().iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u32> = b.weights().iter().map(|v| v.to_bits()).collect();
        assert_eq!(wa, wb);
        // and re-saving reproduces identical bytes
        assert_eq!(b.to_checkpoint_bytes(), bytes);
    }

    #[test]
    fn file_round_trip_and_atomic_tmp_cleanup() {
        let dir = std::env::temp_dir().join(format!("hs_ckpt_{}", std::process::id()));
        let path = dir.join("nested/model.ckpt");
        let mut a = net(3);
        a.save_checkpoint(&path).unwrap();
        assert!(!path.with_extension("ckpt.tmp").exists());
        let mut b = net(4);
        b.load_checkpoint(&path).unwrap();
        assert_eq!(a.weights(), b.weights());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn versioned_paths_sharing_a_stem_do_not_collide_on_the_tmp_file() {
        // with_extension-based tmp naming would map model.v1 and model.v2
        // onto ONE model.tmp; the tmp must append to the full file name
        let dir = std::env::temp_dir().join(format!("hs_ckpt_vers_{}", std::process::id()));
        let mut a = net(10);
        let mut b = net(11);
        a.save_checkpoint(&dir.join("model.v1")).unwrap();
        b.save_checkpoint(&dir.join("model.v2")).unwrap();
        let mut ra = net(12);
        let mut rb = net(13);
        ra.load_checkpoint(&dir.join("model.v1")).unwrap();
        rb.load_checkpoint(&dir.join("model.v2")).unwrap();
        assert_eq!(ra.weights(), a.weights());
        assert_eq!(rb.weights(), b.weights());
        // and the tmp names are distinct (so concurrent saves cannot race)
        assert!(!dir.join("model.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_detected_and_model_untouched() {
        let mut a = net(5);
        let bytes = a.to_checkpoint_bytes();
        let mut rng = StdRng::seed_from_u64(6);
        let mut other = Network::new(Sequential::new(vec![Box::new(Linear::new(
            3, 9, // different width
            &mut rng,
        ))]));
        let before = other.weights();
        let err = other.load_checkpoint_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("different architecture"));
        assert_eq!(other.weights(), before, "failed load must not mutate");
    }

    #[test]
    fn truncated_and_garbage_inputs_are_rejected() {
        let mut a = net(7);
        let bytes = a.to_checkpoint_bytes();
        let mut b = net(8);
        let before = b.weights();
        // every truncation point fails cleanly and leaves the model alone
        for cut in [0, 4, 12, 20, bytes.len() / 2, bytes.len() - 1] {
            let err = b.load_checkpoint_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated(_)
                        | CheckpointError::BadMagic { .. }
                        | CheckpointError::ParamCountMismatch { .. }
                ),
                "cut at {cut} gave {err}"
            );
            assert_eq!(b.weights(), before);
        }
        // wrong magic
        let mut garbage = bytes.clone();
        garbage[0] = b'X';
        assert!(matches!(
            b.load_checkpoint_bytes(&garbage).unwrap_err(),
            CheckpointError::BadMagic { .. }
        ));
        // trailing junk
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            b.load_checkpoint_bytes(&long).unwrap_err(),
            CheckpointError::TrailingBytes { extra: 1 }
        ));
    }

    #[test]
    fn version_from_the_future_is_rejected() {
        let mut a = net(9);
        let mut bytes = a.to_checkpoint_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let err = a.load_checkpoint_bytes(&bytes).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::UnsupportedVersion { found: 99 }
        ));
        assert!(err.to_string().contains("version 99"));
    }

    /// Hand-encodes the PR 2 v1 layout (flat f32 params, no dtype tags, no
    /// checksums) for an f32 network — the frozen on-disk format old
    /// checkpoints are stuck in.
    fn encode_v1(net: &mut Network) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(&CHECKPOINT_MAGIC);
        w.put_u32(1);
        w.put_u64(net.fingerprint());
        let total: usize = net.params_mut().iter().map(|p| p.len()).sum();
        w.put_u64(total as u64);
        for p in net.params_mut() {
            w.put_f32_slice(p.value.as_slice());
        }
        let buffers = net.buffers_mut();
        w.put_u64(buffers.len() as u64);
        for b in buffers {
            w.put_str("buf");
            let dims = b.dims();
            w.put_u32(dims.len() as u32);
            for &d in dims {
                w.put_u32(d as u32);
            }
            w.put_f32_slice(b.as_slice());
        }
        w.into_bytes()
    }

    #[test]
    fn v1_checkpoints_still_load_byte_exactly() {
        let mut a = net(20);
        let v1 = encode_v1(&mut a);
        let mut b = net(21);
        b.load_checkpoint_bytes(&v1).unwrap();
        let wa: Vec<u32> = a.weights().iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u32> = b.weights().iter().map(|v| v.to_bits()).collect();
        assert_eq!(wa, wb, "v1 load must be exact to the bit");
    }

    #[test]
    fn v1_checkpoints_quantize_on_load_into_converted_replicas() {
        use hs_tensor::DType;
        let mut a = net(22);
        let v1 = encode_v1(&mut a);
        let mut b = net(23);
        b.to_dtype(DType::F16);
        b.load_checkpoint_bytes(&v1).unwrap();
        // the replica's f16 weights equal quantize(a's f32 weights)
        let mut expect = net(24);
        expect.load_checkpoint_bytes(&v1).unwrap();
        expect.to_dtype(DType::F16);
        let xa = {
            let mut rng = StdRng::seed_from_u64(25);
            hs_tensor::Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng)
        };
        assert_eq!(
            b.infer(&xa).as_slice(),
            expect.infer(&xa).as_slice(),
            "quantize-on-load must equal load-then-quantize"
        );
    }

    #[test]
    fn corrupted_payloads_are_rejected_and_model_untouched() {
        let mut a = net(26);
        let bytes = a.to_checkpoint_bytes();
        let mut b = net(27);
        let before = b.weights();
        // flip one byte inside the first parameter payload (header is 28
        // bytes: magic 8 + version 4 + fingerprint 8 + tensor count 8; the
        // first tensor's tag+len take 9 more)
        let mut corrupt = bytes.clone();
        corrupt[40] ^= 0xff;
        let err = b.load_checkpoint_bytes(&corrupt).unwrap_err();
        assert!(
            matches!(err, CheckpointError::CrcMismatch { .. }),
            "expected CRC mismatch, got {err}"
        );
        assert!(err.to_string().contains("integrity check"));
        assert_eq!(b.weights(), before, "failed load must not mutate");
        // corruption near the end of the file is caught too: net() has no
        // buffers, so the file ends with payload, crc (4 bytes), buffer
        // count (8 bytes) — flip the last payload byte of the last tensor
        let mut tail = bytes.clone();
        let n = tail.len();
        tail[n - 13] ^= 0xff;
        let err = b.load_checkpoint_bytes(&tail).unwrap_err();
        assert!(matches!(err, CheckpointError::CrcMismatch { .. }));
        assert_eq!(b.weights(), before);
    }

    #[test]
    fn quantized_save_load_is_bit_stable() {
        use hs_tensor::DType;
        for dtype in [DType::F16, DType::I8] {
            let mut a = net(28);
            a.to_dtype(dtype);
            let bytes = a.to_checkpoint_bytes();
            let mut b = net(29);
            b.to_dtype(dtype);
            b.load_checkpoint_bytes(&bytes).unwrap();
            // identical quantized payloads → identical re-saved bytes
            assert_eq!(
                b.to_checkpoint_bytes(),
                bytes,
                "{dtype}: quantized round trip must be byte-stable"
            );
        }
    }

    #[test]
    fn cross_dtype_loads_share_the_fingerprint() {
        use hs_tensor::DType;
        let mut f32_net = net(30);
        let mut f16_net = net(31);
        f16_net.to_dtype(DType::F16);
        assert_eq!(
            f32_net.fingerprint(),
            f16_net.fingerprint(),
            "quantization must not change the topology fingerprint"
        );
        // f32 checkpoint → f16 replica (quantize-on-load)
        let f32_bytes = f32_net.to_checkpoint_bytes();
        f16_net.load_checkpoint_bytes(&f32_bytes).unwrap();
        // f16 checkpoint → f32 replica (widen-on-load)
        let f16_bytes = f16_net.to_checkpoint_bytes();
        let mut widened = net(32);
        widened.load_checkpoint_bytes(&f16_bytes).unwrap();
        let x = {
            let mut rng = StdRng::seed_from_u64(33);
            hs_tensor::Tensor::rand_uniform(&[4, 3], -1.0, 1.0, &mut rng)
        };
        let quantized_out = f16_net.infer(&x).clone();
        let widened_out = widened.infer(&x).clone();
        for (a, b) in quantized_out.as_slice().iter().zip(widened_out.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-5 * a.abs().max(1.0),
                "widened replica diverged: {a} vs {b}"
            );
        }
    }
}

//! Versioned, checksummed solver snapshots and the sinks that store them.
//!
//! A [`Snapshot`] is a named-section container: magic + format version,
//! a plan hash binding the snapshot to the geometry/partitioning it was
//! taken under, the iteration counter, a list of typed named sections
//! (f32 vectors for solver state, f64/u64 scalars and f64 vectors for
//! metadata), and a trailing FNV-1a 64 checksum over everything before
//! it. Decoding validates magic, version, and checksum before touching
//! any section, so a truncated or corrupted file is rejected with a
//! typed [`CheckpointError`] instead of deserializing garbage.
//!
//! Storage is abstracted behind [`CheckpointSink`]: [`FileCheckpointSink`]
//! writes `{base}.{slot}` via a temp file + atomic rename (a crash
//! mid-save leaves the previous snapshot intact), and
//! [`MemoryCheckpointSink`] backs tests.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use xct_model::sync::Mutex;

use crate::comm::fnv1a64;

/// Magic prefix of every snapshot: `XCTCKPT` + the format version byte.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"XCTCKPT\x02";

/// The current snapshot format version (the last magic byte). Version 2
/// added the u64-vector section kind (batched solver state); readers
/// accept every version back to [`SNAPSHOT_MIN_VERSION`].
pub const SNAPSHOT_VERSION: u8 = 2;

/// The oldest snapshot format version this build can still read.
pub const SNAPSHOT_MIN_VERSION: u8 = 1;

/// Why a snapshot could not be read, written, or interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file carries a format version this build cannot read.
    UnsupportedVersion {
        /// The version byte found in the file.
        found: u8,
    },
    /// The file ends before the advertised contents do.
    Truncated {
        /// Which part of the layout was cut short.
        context: &'static str,
    },
    /// The trailing checksum does not match the contents.
    ChecksumMismatch,
    /// A section the reader requires is absent.
    MissingSection {
        /// The requested section name.
        name: String,
    },
    /// A section exists but holds a different payload type.
    WrongKind {
        /// The requested section name.
        name: String,
    },
    /// The same section name appears twice.
    DuplicateSection {
        /// The duplicated section name.
        name: String,
    },
    /// An unknown section kind byte (file from a newer writer).
    UnknownKind {
        /// The unrecognized kind byte.
        kind: u8,
    },
    /// Underlying storage failed (message from the I/O layer).
    Io {
        /// The rendered I/O error.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            CheckpointError::Truncated { context } => {
                write!(f, "snapshot truncated in {context}")
            }
            CheckpointError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            CheckpointError::MissingSection { name } => {
                write!(f, "snapshot is missing section `{name}`")
            }
            CheckpointError::WrongKind { name } => {
                write!(f, "snapshot section `{name}` has the wrong payload type")
            }
            CheckpointError::DuplicateSection { name } => {
                write!(f, "snapshot section `{name}` appears twice")
            }
            CheckpointError::UnknownKind { kind } => {
                write!(f, "unknown snapshot section kind {kind}")
            }
            CheckpointError::Io { message } => write!(f, "snapshot I/O failed: {message}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One typed section payload.
#[derive(Debug, Clone, PartialEq)]
enum SectionData {
    F32Vec(Vec<f32>),
    F64(f64),
    U64(u64),
    F64Vec(Vec<f64>),
    U64Vec(Vec<u64>),
}

impl SectionData {
    fn kind(&self) -> u8 {
        match self {
            SectionData::F32Vec(_) => 0,
            SectionData::F64(_) => 1,
            SectionData::U64(_) => 2,
            SectionData::F64Vec(_) => 3,
            SectionData::U64Vec(_) => 4,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Section {
    name: String,
    data: SectionData,
}

/// A versioned, checksummed solver snapshot: plan hash + iteration +
/// named typed sections. See the module docs for the byte layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    plan_hash: u64,
    iteration: u64,
    sections: Vec<Section>,
}

impl Snapshot {
    /// Start an empty snapshot bound to a plan hash and iteration.
    pub fn new(plan_hash: u64, iteration: u64) -> Self {
        Snapshot {
            plan_hash,
            iteration,
            sections: Vec::new(),
        }
    }

    /// The plan hash the snapshot was taken under.
    pub fn plan_hash(&self) -> u64 {
        self.plan_hash
    }

    /// The iteration counter at save time.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Names of all sections, in insertion order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.name.as_str()).collect()
    }

    fn find(&self, name: &str) -> Result<&SectionData, CheckpointError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| &s.data)
            .ok_or_else(|| CheckpointError::MissingSection {
                name: name.to_string(),
            })
    }

    /// Append an f32 vector section (solver vectors: x, residual, …).
    pub fn push_f32s(&mut self, name: &str, data: &[f32]) {
        self.sections.push(Section {
            name: name.to_string(),
            data: SectionData::F32Vec(data.to_vec()),
        });
    }

    /// Append an f64 scalar section (CG gamma, residual norms, …).
    pub fn push_f64(&mut self, name: &str, value: f64) {
        self.sections.push(Section {
            name: name.to_string(),
            data: SectionData::F64(value),
        });
    }

    /// Append a u64 scalar section (rank counts, ranges, flags, …).
    pub fn push_u64(&mut self, name: &str, value: u64) {
        self.sections.push(Section {
            name: name.to_string(),
            data: SectionData::U64(value),
        });
    }

    /// Append an f64 vector section (per-iteration series, …).
    pub fn push_f64s(&mut self, name: &str, data: &[f64]) {
        self.sections.push(Section {
            name: name.to_string(),
            data: SectionData::F64Vec(data.to_vec()),
        });
    }

    /// Append a u64 vector section (per-slice lengths, flags, …). Readers
    /// older than format version 2 reject snapshots containing one.
    pub fn push_u64s(&mut self, name: &str, data: &[u64]) {
        self.sections.push(Section {
            name: name.to_string(),
            data: SectionData::U64Vec(data.to_vec()),
        });
    }

    /// Read an f32 vector section.
    pub fn f32s(&self, name: &str) -> Result<&[f32], CheckpointError> {
        match self.find(name)? {
            SectionData::F32Vec(v) => Ok(v),
            _ => Err(CheckpointError::WrongKind {
                name: name.to_string(),
            }),
        }
    }

    /// Read an f64 scalar section.
    pub fn f64_scalar(&self, name: &str) -> Result<f64, CheckpointError> {
        match self.find(name)? {
            SectionData::F64(v) => Ok(*v),
            _ => Err(CheckpointError::WrongKind {
                name: name.to_string(),
            }),
        }
    }

    /// Read a u64 scalar section.
    pub fn u64_scalar(&self, name: &str) -> Result<u64, CheckpointError> {
        match self.find(name)? {
            SectionData::U64(v) => Ok(*v),
            _ => Err(CheckpointError::WrongKind {
                name: name.to_string(),
            }),
        }
    }

    /// Read an f64 vector section.
    pub fn f64s(&self, name: &str) -> Result<&[f64], CheckpointError> {
        match self.find(name)? {
            SectionData::F64Vec(v) => Ok(v),
            _ => Err(CheckpointError::WrongKind {
                name: name.to_string(),
            }),
        }
    }

    /// Read a u64 vector section.
    pub fn u64s(&self, name: &str) -> Result<&[u64], CheckpointError> {
        match self.find(name)? {
            SectionData::U64Vec(v) => Ok(v),
            _ => Err(CheckpointError::WrongKind {
                name: name.to_string(),
            }),
        }
    }

    /// True when `name` exists (any kind).
    pub fn has(&self, name: &str) -> bool {
        self.sections.iter().any(|s| s.name == name)
    }

    /// Serialize to the on-disk byte layout (magic, header, sections,
    /// trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&self.plan_hash.to_le_bytes());
        out.extend_from_slice(&self.iteration.to_le_bytes());
        // in-range: a snapshot holds a handful of named sections, never 4G
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            // in-range: section names are short static identifiers
            out.extend_from_slice(&(s.name.len() as u32).to_le_bytes());
            out.extend_from_slice(s.name.as_bytes());
            out.push(s.data.kind());
            match &s.data {
                SectionData::F32Vec(v) => {
                    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                SectionData::F64(x) => {
                    out.extend_from_slice(&1u64.to_le_bytes());
                    out.extend_from_slice(&x.to_le_bytes());
                }
                SectionData::U64(x) => {
                    out.extend_from_slice(&1u64.to_le_bytes());
                    out.extend_from_slice(&x.to_le_bytes());
                }
                SectionData::F64Vec(v) => {
                    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                SectionData::U64Vec(v) => {
                    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
            }
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parse and validate a snapshot: magic, version, and checksum are
    /// checked before any section is interpreted.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
        if bytes.len() < 8 {
            return Err(CheckpointError::Truncated { context: "magic" });
        }
        if bytes[..7] != SNAPSHOT_MAGIC[..7] {
            return Err(CheckpointError::BadMagic);
        }
        if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&bytes[7]) {
            return Err(CheckpointError::UnsupportedVersion { found: bytes[7] });
        }
        if bytes.len() < 8 + 8 {
            return Err(CheckpointError::Truncated {
                context: "checksum",
            });
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if fnv1a64(body) != stored {
            return Err(CheckpointError::ChecksumMismatch);
        }

        let mut r = Reader {
            bytes: body,
            pos: 8,
        };
        let plan_hash = r.u64("plan hash")?;
        let iteration = r.u64("iteration")?;
        let count = r.u32("section count")? as usize;
        let mut sections = Vec::with_capacity(count);
        let mut seen: HashMap<String, ()> = HashMap::with_capacity(count);
        for _ in 0..count {
            let name_len = r.u32("section name length")? as usize;
            let name_bytes = r.take(name_len, "section name")?;
            let name = String::from_utf8_lossy(name_bytes).into_owned();
            if seen.insert(name.clone(), ()).is_some() {
                return Err(CheckpointError::DuplicateSection { name });
            }
            let kind = r.u8("section kind")?;
            let len = r.u64("section length")? as usize;
            let data = match kind {
                0 => {
                    let raw = r.take(len * 4, "f32 section payload")?;
                    SectionData::F32Vec(
                        raw.chunks_exact(4)
                            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                            .collect(),
                    )
                }
                1 => SectionData::F64(f64::from_le_bytes(
                    r.take(8, "f64 section payload")?
                        .try_into()
                        .expect("8-byte take"),
                )),
                2 => SectionData::U64(u64::from_le_bytes(
                    r.take(8, "u64 section payload")?
                        .try_into()
                        .expect("8-byte take"),
                )),
                3 => {
                    let raw = r.take(len * 8, "f64 section payload")?;
                    SectionData::F64Vec(
                        raw.chunks_exact(8)
                            .map(|c| {
                                f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
                            })
                            .collect(),
                    )
                }
                4 => {
                    let raw = r.take(len * 8, "u64 section payload")?;
                    SectionData::U64Vec(
                        raw.chunks_exact(8)
                            .map(|c| {
                                u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
                            })
                            .collect(),
                    )
                }
                other => return Err(CheckpointError::UnknownKind { kind: other }),
            };
            sections.push(Section { name, data });
        }
        Ok(Snapshot {
            plan_hash,
            iteration,
            sections,
        })
    }
}

/// Bounds-checked little-endian reader over a snapshot body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CheckpointError::Truncated { context })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, CheckpointError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, CheckpointError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, CheckpointError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Where encoded snapshots are stored. `slot` separates independent
/// streams: the solve driver gives every group of a request its own
/// (group index — 0 for a single slice or batch). Snapshots are global —
/// in a distributed solve rank 0 writes the gathered state — so ranks
/// never have slots of their own.
pub trait CheckpointSink: Send + Sync {
    /// Persist the encoded snapshot for `slot`, replacing any previous
    /// one atomically (a failed save must not destroy the old snapshot).
    fn save(&self, slot: usize, bytes: &[u8]) -> Result<(), CheckpointError>;

    /// Load the latest snapshot bytes for `slot`; `Ok(None)` when none
    /// was ever saved.
    fn load(&self, slot: usize) -> Result<Option<Vec<u8>>, CheckpointError>;
}

/// File-backed sink: slot `s` lives at `{base}.{s}`, written via a temp
/// file and an atomic rename.
#[derive(Debug, Clone)]
pub struct FileCheckpointSink {
    base: PathBuf,
}

impl FileCheckpointSink {
    /// A sink rooted at `base` (e.g. `--checkpoint /tmp/ck` stores slot 0
    /// at `/tmp/ck.0`).
    pub fn new(base: impl Into<PathBuf>) -> Self {
        FileCheckpointSink { base: base.into() }
    }

    /// The path of `slot`.
    pub fn slot_path(&self, slot: usize) -> PathBuf {
        let mut name = self.base.as_os_str().to_owned();
        name.push(format!(".{slot}"));
        PathBuf::from(name)
    }
}

fn io_err(e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        message: e.to_string(),
    }
}

impl CheckpointSink for FileCheckpointSink {
    fn save(&self, slot: usize, bytes: &[u8]) -> Result<(), CheckpointError> {
        let path = self.slot_path(slot);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io_err)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, bytes).map_err(io_err)?;
        std::fs::rename(&tmp, &path).map_err(io_err)
    }

    fn load(&self, slot: usize) -> Result<Option<Vec<u8>>, CheckpointError> {
        match std::fs::read(self.slot_path(slot)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(e)),
        }
    }
}

/// In-memory sink for tests and single-process resume rehearsals.
#[derive(Debug, Default)]
pub struct MemoryCheckpointSink {
    slots: Mutex<HashMap<usize, Vec<u8>>>,
}

impl MemoryCheckpointSink {
    /// An empty sink.
    pub fn new() -> Self {
        MemoryCheckpointSink::default()
    }

    /// Number of saved slots.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True when nothing was saved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CheckpointSink for MemoryCheckpointSink {
    fn save(&self, slot: usize, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.slots.lock().insert(slot, bytes.to_vec());
        Ok(())
    }

    fn load(&self, slot: usize) -> Result<Option<Vec<u8>>, CheckpointError> {
        Ok(self.slots.lock().get(&slot).cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new(0xDEAD_BEEF, 7);
        s.push_f32s("x", &[1.0, -2.5, 3.25]);
        s.push_f32s("resid", &[0.5; 4]);
        s.push_f64("gamma", 1.0e-3);
        s.push_u64("ranks", 4);
        s.push_f64s("residual_series", &[9.0, 4.0, 1.0]);
        s.push_u64s("active", &[1, 0, 1]);
        s
    }

    #[test]
    fn roundtrip_preserves_everything_bitwise() {
        let s = sample();
        let bytes = s.encode();
        let d = Snapshot::decode(&bytes).unwrap();
        assert_eq!(d, s);
        assert_eq!(d.plan_hash(), 0xDEAD_BEEF);
        assert_eq!(d.iteration(), 7);
        assert_eq!(d.f32s("x").unwrap(), &[1.0, -2.5, 3.25]);
        assert_eq!(d.f64_scalar("gamma").unwrap(), 1.0e-3);
        assert_eq!(d.u64_scalar("ranks").unwrap(), 4);
        assert_eq!(d.f64s("residual_series").unwrap(), &[9.0, 4.0, 1.0]);
        assert_eq!(d.u64s("active").unwrap(), &[1, 0, 1]);
        assert_eq!(
            d.section_names(),
            vec!["x", "resid", "gamma", "ranks", "residual_series", "active"]
        );
    }

    #[test]
    fn version_1_snapshots_still_decode() {
        // A v1 writer never emitted u64-vector sections; craft its byte
        // stream by rewriting the version byte and re-checksumming.
        let mut s = Snapshot::new(0xFEED, 3);
        s.push_f32s("x", &[1.0, 2.0]);
        s.push_f64("gamma", 0.25);
        let mut bytes = s.encode();
        bytes[7] = 1;
        let body_len = bytes.len() - 8;
        let checksum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        let d = Snapshot::decode(&bytes).unwrap();
        assert_eq!(d.plan_hash(), 0xFEED);
        assert_eq!(d.f32s("x").unwrap(), &[1.0, 2.0]);
        assert_eq!(d.f64_scalar("gamma").unwrap(), 0.25);
    }

    #[test]
    fn version_0_is_rejected() {
        let mut bytes = sample().encode();
        bytes[7] = 0;
        let body_len = bytes.len() - 8;
        let checksum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 0 })
        );
    }

    #[test]
    fn nan_and_negative_zero_survive() {
        let mut s = Snapshot::new(1, 0);
        s.push_f32s("v", &[f32::NAN, -0.0, f32::INFINITY]);
        let d = Snapshot::decode(&s.encode()).unwrap();
        let v = d.f32s("v").unwrap();
        assert!(v[0].is_nan());
        assert_eq!(v[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(v[2], f32::INFINITY);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'Y';
        assert_eq!(Snapshot::decode(&bytes), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut s = sample().encode();
        s[7] = 9;
        assert_eq!(
            Snapshot::decode(&s),
            Err(CheckpointError::UnsupportedVersion { found: 9 })
        );
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. }
                        | CheckpointError::ChecksumMismatch
                        | CheckpointError::BadMagic
                        | CheckpointError::UnsupportedVersion { .. }
                ),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bitflip_is_rejected() {
        let bytes = sample().encode();
        // Flip one bit per byte position; the checksum (or magic/version
        // check) must catch each one.
        for pos in 0..bytes.len() {
            let mut b = bytes.clone();
            b[pos] ^= 0x10;
            assert!(
                Snapshot::decode(&b).is_err(),
                "bit flip at byte {pos} was accepted"
            );
        }
    }

    #[test]
    fn missing_and_wrong_kind_sections_are_typed() {
        let d = Snapshot::decode(&sample().encode()).unwrap();
        assert_eq!(
            d.f32s("nope"),
            Err(CheckpointError::MissingSection {
                name: "nope".to_string()
            })
        );
        assert_eq!(
            d.f64_scalar("x"),
            Err(CheckpointError::WrongKind {
                name: "x".to_string()
            })
        );
        assert!(d.has("x"));
        assert!(!d.has("nope"));
    }

    #[test]
    fn file_sink_roundtrips_and_is_atomic() {
        let dir = std::env::temp_dir().join(format!(
            "xct-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = FileCheckpointSink::new(dir.join("ck"));
        assert_eq!(sink.load(0).unwrap(), None, "empty slot loads as None");
        let bytes = sample().encode();
        sink.save(0, &bytes).unwrap();
        assert_eq!(sink.load(0).unwrap(), Some(bytes.clone()));
        // Overwrite is atomic: no .tmp residue, new contents visible.
        let bytes2 = Snapshot::new(1, 8).encode();
        sink.save(0, &bytes2).unwrap();
        assert_eq!(sink.load(0).unwrap(), Some(bytes2));
        assert!(!sink.slot_path(0).with_extension("0.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_sink_separates_slots() {
        let sink = MemoryCheckpointSink::new();
        assert!(sink.is_empty());
        sink.save(0, b"zero").unwrap();
        sink.save(3, b"three").unwrap();
        assert_eq!(sink.load(0).unwrap().unwrap(), b"zero");
        assert_eq!(sink.load(3).unwrap().unwrap(), b"three");
        assert_eq!(sink.load(1).unwrap(), None);
        assert_eq!(sink.len(), 2);
    }
}

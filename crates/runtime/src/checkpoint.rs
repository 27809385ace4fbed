//! Checksummed solver snapshots and the sinks that store them.
//!
//! A [`Snapshot`] is a named-section container with one format, version
//! 2: magic + version byte, a plan hash binding the snapshot to the plan
//! it was taken under, the iteration counter, a list of named sections,
//! and a trailing FNV-1a 64 checksum over everything before it. A section
//! is a vector of one of three kinds: f32 (kind byte 0: solver state),
//! f64 (kind 3: scalars and series) or u64 (kind 4: widths, flags,
//! counts); any other kind byte decodes as [`CheckpointError::UnknownKind`].
//! Decoding validates magic, version, and checksum before touching any
//! section, and every length it reads is checked against the bytes left,
//! so a truncated or corrupted file is rejected with a typed
//! [`CheckpointError`] instead of deserializing garbage.
//!
//! Storage is abstracted behind [`CheckpointSink`]: [`FileCheckpointSink`]
//! writes `{base}.{slot}` via a temp file + atomic rename (a crash
//! mid-save leaves the previous snapshot intact), and
//! [`MemoryCheckpointSink`] backs tests.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use xct_model::sync::Mutex;

use crate::comm::fnv1a64;

/// Magic prefix of every snapshot: `XCTCKPT` + the format version byte.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"XCTCKPT\x02";

/// The snapshot format version (the last magic byte), the only one this
/// build writes or reads.
pub const SNAPSHOT_VERSION: u8 = 2;

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

/// One section payload: a vector of one of the three kinds.
#[derive(Debug, Clone, PartialEq)]
enum SectionData {
    F32(Vec<f32>),
    F64(Vec<f64>),
    U64(Vec<u64>),
}

/// The kind bytes of [`SectionData`]'s variants on disk.
const KIND_F32: u8 = 0;
const KIND_F64: u8 = 3;
const KIND_U64: u8 = 4;

#[derive(Debug, Clone, PartialEq)]
struct Section {
    name: String,
    data: SectionData,
}

fn wrong_kind(name: &str) -> CheckpointError {
    CheckpointError::WrongKind {
        name: name.to_string(),
    }
}

/// A checksummed solver snapshot: plan hash + iteration + named typed
/// sections. See the module docs for the byte layout.
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

    fn push(&mut self, name: &str, data: SectionData) {
        self.sections.push(Section {
            name: name.to_string(),
            data,
        });
    }

    /// Append an f32 vector section (solver vectors: x, residual, …).
    pub fn push_f32s(&mut self, name: &str, data: &[f32]) {
        self.push(name, SectionData::F32(data.to_vec()));
    }

    /// Append an f64 vector section (rule scalars, per-iteration series, …).
    pub fn push_f64s(&mut self, name: &str, data: &[f64]) {
        self.push(name, SectionData::F64(data.to_vec()));
    }

    /// Append a u64 vector section (batch width, per-slice flags, counts, …).
    pub fn push_u64s(&mut self, name: &str, data: &[u64]) {
        self.push(name, SectionData::U64(data.to_vec()));
    }

    /// Read an f32 vector section.
    pub fn f32s(&self, name: &str) -> Result<&[f32], CheckpointError> {
        match self.find(name)? {
            SectionData::F32(v) => Ok(v),
            _ => Err(wrong_kind(name)),
        }
    }

    /// Read an f64 vector section.
    pub fn f64s(&self, name: &str) -> Result<&[f64], CheckpointError> {
        match self.find(name)? {
            SectionData::F64(v) => Ok(v),
            _ => Err(wrong_kind(name)),
        }
    }

    /// Read a u64 vector section.
    pub fn u64s(&self, name: &str) -> Result<&[u64], CheckpointError> {
        match self.find(name)? {
            SectionData::U64(v) => Ok(v),
            _ => Err(wrong_kind(name)),
        }
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
            match &s.data {
                SectionData::F32(v) => put(&mut out, KIND_F32, v.iter().map(|x| x.to_le_bytes())),
                SectionData::F64(v) => put(&mut out, KIND_F64, v.iter().map(|x| x.to_le_bytes())),
                SectionData::U64(v) => put(&mut out, KIND_U64, v.iter().map(|x| x.to_le_bytes())),
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
        if bytes[7] != SNAPSHOT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: bytes[7] });
        }
        let Some((body, tail)) = bytes.split_last_chunk::<8>().filter(|(b, _)| b.len() >= 8) else {
            return Err(CheckpointError::Truncated {
                context: "checksum",
            });
        };
        if fnv1a64(body) != u64::from_le_bytes(*tail) {
            return Err(CheckpointError::ChecksumMismatch);
        }

        let mut r = Reader {
            bytes: body,
            pos: 8,
        };
        let plan_hash = u64::from_le_bytes(r.array("plan hash")?);
        let iteration = u64::from_le_bytes(r.array("iteration")?);
        let count = u32::from_le_bytes(r.array("section count")?);
        // No capacity from the header: a forged count must not allocate.
        let mut sections = Vec::new();
        let mut seen = HashSet::new();
        for _ in 0..count {
            let name_len = u32::from_le_bytes(r.array("section name length")?) as usize;
            let name_bytes = r.take(name_len, "section name")?;
            let name = String::from_utf8_lossy(name_bytes).into_owned();
            if !seen.insert(name.clone()) {
                return Err(CheckpointError::DuplicateSection { name });
            }
            let [kind] = r.array("section kind")?;
            let data = match kind {
                KIND_F32 => SectionData::F32(
                    r.words("f32 section payload")?
                        .map(f32::from_le_bytes)
                        .collect(),
                ),
                KIND_F64 => SectionData::F64(
                    r.words("f64 section payload")?
                        .map(f64::from_le_bytes)
                        .collect(),
                ),
                KIND_U64 => SectionData::U64(
                    r.words("u64 section payload")?
                        .map(u64::from_le_bytes)
                        .collect(),
                ),
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

/// Write one vector section's kind byte, element count, and elements of
/// `W` little-endian bytes each.
fn put<const W: usize>(out: &mut Vec<u8>, kind: u8, words: impl ExactSizeIterator<Item = [u8; W]>) {
    out.push(kind);
    out.extend_from_slice(&(words.len() as u64).to_le_bytes());
    out.reserve(words.len() * W);
    for w in words {
        out.extend_from_slice(&w);
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

    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], CheckpointError> {
        Ok(self.take(N, context)?.as_chunks::<N>().0[0])
    }

    /// A vector payload: its u64 element count, then that many elements
    /// of `W` bytes. The byte length is one checked multiply, so a count
    /// no file can hold is a truncation, never an overflow.
    fn words<const W: usize>(
        &mut self,
        context: &'static str,
    ) -> Result<impl Iterator<Item = [u8; W]> + 'a, CheckpointError> {
        let len = u64::from_le_bytes(self.array("section length")?);
        let n = usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_mul(W))
            .ok_or(CheckpointError::Truncated { context })?;
        Ok(self.take(n, context)?.as_chunks::<W>().0.iter().copied())
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
/// file and an atomic rename. `base`'s directory must exist: a save into
/// a missing one fails with [`CheckpointError::Io`] and creates nothing.
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
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        // No directory is created: a missing parent is a mistyped path,
        // and fails here as one.
        std::fs::write(&tmp, bytes).map_err(|e| CheckpointError::Io {
            message: format!("{}: {e}", tmp.display()),
        })?;
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
        s.push_f64s("gamma", &[1.0e-3]);
        s.push_u64s("batch", &[4]);
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
        assert_eq!(d.f64s("gamma").unwrap(), &[1.0e-3]);
        assert_eq!(d.u64s("batch").unwrap(), &[4]);
        assert_eq!(d.f64s("residual_series").unwrap(), &[9.0, 4.0, 1.0]);
        assert_eq!(d.u64s("active").unwrap(), &[1, 0, 1]);
        assert_eq!(
            d.section_names(),
            vec!["x", "resid", "gamma", "batch", "residual_series", "active"]
        );
    }

    /// `bytes` with a fresh trailing checksum over the edited body.
    fn rechecksummed(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 8;
        let checksum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn version_0_is_rejected() {
        // Version 1 (the pre-batch format) is no longer read either.
        for version in [0, 1] {
            let mut bytes = sample().encode();
            bytes[7] = version;
            assert_eq!(
                Snapshot::decode(&rechecksummed(bytes)),
                Err(CheckpointError::UnsupportedVersion { found: version })
            );
        }
    }

    #[test]
    fn scalar_kind_bytes_are_unknown() {
        // A one-element f64 section: name length, `g`, kind byte at 33.
        let mut s = Snapshot::new(5, 1);
        s.push_f64s("g", &[0.25]);
        for kind in [1, 2, 5, 255] {
            let mut bytes = s.encode();
            assert_eq!(bytes[33], KIND_F64, "layout changed");
            bytes[33] = kind;
            assert_eq!(
                Snapshot::decode(&rechecksummed(bytes)),
                Err(CheckpointError::UnknownKind { kind })
            );
        }
    }

    #[test]
    fn overflowing_section_length_is_truncated() {
        // A one-element f32 section whose length field (bytes 34..42)
        // claims 2^62 + 1 elements: `len * 4` wraps to 4 on 64 bits.
        let bytes: [u8; 54] = [
            b'X', b'C', b'T', b'C', b'K', b'P', b'T', 2, // magic
            7, 0, 0, 0, 0, 0, 0, 0, // plan hash
            3, 0, 0, 0, 0, 0, 0, 0, // iteration
            1, 0, 0, 0, // section count
            1, 0, 0, 0, b'x', // name
            0,    // kind: f32
            1, 0, 0, 0, 0, 0, 0, 0x40, // length: 2^62 + 1
            0, 0, 0x80, 0x3f, // 1.0f32
            0x88, 0x9e, 0x62, 0x29, 0x33, 0xdd, 0xf7, 0x72, // checksum
        ];
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(CheckpointError::Truncated {
                context: "f32 section payload"
            })
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
            d.f64s("x"),
            Err(CheckpointError::WrongKind {
                name: "x".to_string()
            })
        );
    }

    #[test]
    fn file_sink_roundtrips_and_is_atomic() {
        let dir = std::env::temp_dir().join(format!(
            "xct-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
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
    fn file_sink_creates_no_directory() {
        let missing = std::env::temp_dir().join(format!(
            "xct-ckpt-missing-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&missing);
        let sink = FileCheckpointSink::new(missing.join("deeper").join("ck"));
        let err = sink.save(0, &sample().encode()).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err:?}");
        assert!(!missing.exists(), "a failed save left a directory behind");
        assert_eq!(sink.load(0).unwrap(), None, "nothing to load either");
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

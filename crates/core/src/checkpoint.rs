//! Versioned binary checkpoints for the incremental pipeline.
//!
//! The workspace builds with zero external crates, so there is no serde to
//! lean on; instead checkpoints use a deliberately boring hand-rolled wire
//! format: a magic prefix, a format version, little-endian fixed-width
//! integers, length-prefixed byte strings, and a trailing end marker. The
//! codec's one hard rule is that *no input can make the decoder panic*:
//! every read is bounds-checked and every structural defect surfaces as a
//! typed [`CheckpointError`]. Truncate a snapshot at any byte, flip any
//! byte — loading returns an error, never UB and never a `panic!`.
//!
//! The encoding of the pipeline state itself lives with the state, in
//! [`crate::incremental`], and each job export's part beside its index,
//! in [`crate::impact`]. Format 3 stores that index itself (each GPU's
//! holders at fixed width, the Table III minutes, the counts), so a
//! restore rebuilds and re-sorts nothing; this build still reads format
//! 2, which stored the job rows, by decoding them into the index once.
//! This module owns the container format and the primitive
//! readers/writers. The [`Encoder`]/[`Decoder`] pair is public so
//! downstream subsystems (the `servd` ingest tier wraps an engine
//! checkpoint in its own envelope, which the engine encodes into in
//! place) can speak the same wire discipline instead of inventing a
//! second codec.
//!
//! [`write_atomic`] is the one blessed way to put a checkpoint (or any
//! snapshot-like artifact, e.g. the ingest write-ahead segment) on disk:
//! temp file in the same directory, flush, fsync, atomic rename. A crash
//! at any instant leaves either the previous complete file or the new
//! complete file — never a torn hybrid.

use std::fmt;
use std::io::{self, Write as _};
use std::path::Path;

/// A serialized [`StreamingPipeline`](crate::incremental::StreamingPipeline)
/// state: an opaque, versioned byte blob.
///
/// Produced by
/// [`StreamingPipeline::checkpoint`](crate::incremental::StreamingPipeline::checkpoint)
/// and consumed by
/// [`StreamingPipeline::restore`](crate::incremental::StreamingPipeline::restore).
/// [`from_bytes`](Checkpoint::from_bytes) validates the container header
/// (magic and version); full structural validation happens at restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    bytes: Vec<u8>,
}

impl Checkpoint {
    /// Leading magic bytes of every checkpoint.
    pub const MAGIC: [u8; 8] = *b"DGR-CKPT";
    /// Current format version, the one every encoder writes. Bumped on
    /// any wire-format change; older readers reject newer snapshots with
    /// [`CheckpointError::UnsupportedVersion`] instead of misparsing them.
    /// Format 3 stores each job export's index; format 2 stored its rows.
    pub const VERSION: u32 = 3;
    /// The oldest format version this build still reads. A format-2
    /// checkpoint restores by decoding its job rows into their index.
    pub const MIN_VERSION: u32 = 2;
    /// Trailing end marker, guarding against silent truncation at a field
    /// boundary.
    pub(crate) const END_MARKER: u32 = 0x444E_4521; // "END!"

    /// Wraps freshly encoded bytes (encoder-side constructor).
    pub(crate) fn from_encoder(bytes: Vec<u8>) -> Self {
        Checkpoint { bytes }
    }

    /// Adopts bytes read back from storage, verifying the container
    /// header.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when shorter than a header,
    /// [`CheckpointError::BadMagic`] or
    /// [`CheckpointError::UnsupportedVersion`] when the header is wrong.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Result<Self, CheckpointError> {
        let bytes = bytes.into();
        let mut dec = Decoder::new(&bytes);
        dec.header()?;
        Ok(Checkpoint { bytes })
    }

    /// The serialized form, ready to write to storage.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the checkpoint, yielding its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The format version recorded in the header.
    pub fn version(&self) -> u32 {
        // from_bytes/from_encoder guarantee a well-formed header.
        let mut v = [0u8; 4];
        v.copy_from_slice(&self.bytes[Self::MAGIC.len()..Self::MAGIC.len() + 4]);
        u32::from_le_bytes(v)
    }
}

/// Why a checkpoint could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The blob does not start with [`Checkpoint::MAGIC`] — not a
    /// checkpoint at all.
    BadMagic,
    /// The blob is a checkpoint, but from a format this build cannot read.
    UnsupportedVersion(u32),
    /// The blob ends mid-field; `offset` is where the decoder ran dry.
    Truncated {
        /// Byte offset at which more input was needed.
        offset: usize,
    },
    /// Bytes remain after the end marker — the blob was concatenated or
    /// padded.
    TrailingBytes {
        /// How many bytes follow the end marker.
        extra: usize,
    },
    /// A field decoded but its value is structurally impossible; `what`
    /// names the field.
    Invalid {
        /// Which field was rejected.
        what: &'static str,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads versions {} to {})",
                    Checkpoint::MIN_VERSION,
                    Checkpoint::VERSION
                )
            }
            CheckpointError::Truncated { offset } => {
                write!(f, "checkpoint truncated at byte {offset}")
            }
            CheckpointError::TrailingBytes { extra } => {
                write!(
                    f,
                    "{extra} unexpected bytes after the checkpoint end marker"
                )
            }
            CheckpointError::Invalid { what } => {
                write!(f, "checkpoint field {what:?} has an impossible value")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Writes `bytes` to `path` atomically and durably: a `<name>.tmp`
/// sibling in the same directory is written, flushed, fsynced and then
/// renamed over the target, and the parent directory (`.` for a bare
/// file name) is fsynced after the rename. A crash at any point leaves
/// either the previous complete file or the new complete file — the
/// torn-checkpoint failure mode cannot occur — and once this returns,
/// a power loss cannot bring back the old name: a rename is durable only
/// once its directory is synced, and the `servd` ingest tier compacts
/// its write-ahead log behind the new checkpoint. That tier routes its
/// snapshot writes through here.
///
/// # Errors
///
/// Any underlying filesystem error (create, write, sync, rename, and
/// opening or syncing the directory).
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.flush()?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    std::fs::File::open(parent_dir(path))?.sync_all()
}

/// The directory that names `path`: `.` for a bare file name, whose
/// `parent()` is the empty path.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Little-endian primitive writer backing the checkpoint encoder.
///
/// Public so sibling subsystems (the `servd` ingest envelope) extend the
/// checkpoint format with the same primitives instead of a second codec.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A new encoder with the container header already written.
    pub fn new() -> Self {
        let mut enc = Encoder { buf: Vec::new() };
        enc.header();
        enc
    }

    fn header(&mut self) {
        self.buf.extend_from_slice(&Checkpoint::MAGIC);
        self.u32(Checkpoint::VERSION);
    }

    /// Writes the end marker and seals the checkpoint.
    pub fn finish(mut self) -> Checkpoint {
        self.u32(Checkpoint::END_MARKER);
        Checkpoint::from_encoder(self.buf)
    }

    /// Writes a checkpoint whose body `body` encodes as a length-prefixed
    /// byte string: the bytes [`bytes`](Self::bytes) writes for that
    /// checkpoint once finished, encoded in place instead of copied.
    /// Returns the nested checkpoint's length.
    pub(crate) fn nested(&mut self, body: impl FnOnce(&mut Encoder)) -> usize {
        let at = self.buf.len();
        self.u64(0); // the length, patched below
        self.header();
        body(self);
        self.u32(Checkpoint::END_MARKER);
        let len = self.buf.len() - at - 8;
        self.buf[at..at + 8].copy_from_slice(&(len as u64).to_le_bytes());
        len
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64` (two's-complement, little-endian).
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a boolean as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes an optional `u64` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian reader: the decoding dual of [`Encoder`].
///
/// Every method returns `Err` instead of panicking when the input runs
/// out or a value is malformed.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Validates magic + version, leaving the cursor at the first body
    /// field, and returns the version: any from
    /// [`Checkpoint::MIN_VERSION`] to [`Checkpoint::VERSION`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadMagic`] / [`CheckpointError::UnsupportedVersion`]
    /// on a wrong header, [`CheckpointError::Truncated`] when too short.
    pub fn header(&mut self) -> Result<u32, CheckpointError> {
        let magic = self.take(Checkpoint::MAGIC.len())?;
        if magic != Checkpoint::MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = self.u32()?;
        if !(Checkpoint::MIN_VERSION..=Checkpoint::VERSION).contains(&version) {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        Ok(version)
    }

    /// Consumes the end marker and requires the input to end with it.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Invalid`] on a wrong marker,
    /// [`CheckpointError::TrailingBytes`] when bytes follow it.
    pub fn finish(&mut self) -> Result<(), CheckpointError> {
        let marker = self.u32()?;
        if marker != Checkpoint::END_MARKER {
            return Err(CheckpointError::Invalid { what: "end marker" });
        }
        let extra = self.buf.len() - self.pos;
        if extra > 0 {
            return Err(CheckpointError::TrailingBytes { extra });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(CheckpointError::Truncated { offset: self.pos })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Decodes one byte.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] past the end of input (likewise for
    /// every fixed-width decode below).
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Decodes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] past the end of input.
    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        let mut v = [0u8; 2];
        v.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(v))
    }

    /// Decodes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] past the end of input.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let mut v = [0u8; 4];
        v.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(v))
    }

    /// Decodes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] past the end of input.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let mut v = [0u8; 8];
        v.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(v))
    }

    /// Decodes an `i64` (two's complement over the `u64` encoding).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] past the end of input.
    pub fn i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(self.u64()? as i64)
    }

    /// Decodes an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] past the end of input.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Decodes a bool, rejecting anything but 0/1.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Invalid`] (tagged `what`) on other byte values.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Invalid { what }),
        }
    }

    /// Decodes an `Option<u64>` (presence byte + value).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Invalid`] (tagged `what`) on a bad presence byte.
    pub fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(CheckpointError::Invalid { what }),
        }
    }

    /// A length usable for pre-allocation: decoded, converted to `usize`,
    /// and sanity-bounded by the bytes actually remaining (each encoded
    /// element costs ≥ 1 byte, so a count beyond that is corruption — this
    /// keeps a flipped length byte from demanding a huge allocation).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Invalid`] (tagged `what`) on an oversized count.
    pub fn len(&mut self, what: &'static str) -> Result<usize, CheckpointError> {
        self.len_of(1, what)
    }

    /// [`len`](Self::len) for elements that each cost at least `width`
    /// encoded bytes, so the count is bounded by the remaining bytes over
    /// `width`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Invalid`] (tagged `what`) on an oversized count.
    pub(crate) fn len_of(
        &mut self,
        width: usize,
        what: &'static str,
    ) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        let remaining = self.buf.len() - self.pos;
        usize::try_from(n)
            .ok()
            .filter(|&n| n.checked_mul(width).is_some_and(|bytes| bytes <= remaining))
            .ok_or(CheckpointError::Invalid { what })
    }

    /// Decodes a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Invalid`] / [`CheckpointError::Truncated`] on a
    /// bad length or short input.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, CheckpointError> {
        let n = self.len(what)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Decodes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Invalid`] (tagged `what`) on non-UTF-8 bytes.
    pub fn str(&mut self, what: &'static str) -> Result<String, CheckpointError> {
        let raw = self.bytes(what)?;
        String::from_utf8(raw).map_err(|_| CheckpointError::Invalid { what })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut enc = Encoder::new();
        enc.u64(42);
        enc.str("hello");
        enc.opt_u64(Some(7));
        enc.bool(true);
        enc.f64(0.5);
        enc.finish()
    }

    #[test]
    fn round_trip() {
        let ck = sample();
        let loaded = Checkpoint::from_bytes(ck.as_bytes().to_vec()).unwrap();
        assert_eq!(loaded, ck);
        assert_eq!(loaded.version(), Checkpoint::VERSION);
        let mut dec = Decoder::new(loaded.as_bytes());
        dec.header().unwrap();
        assert_eq!(dec.u64().unwrap(), 42);
        assert_eq!(dec.str("s").unwrap(), "hello");
        assert_eq!(dec.opt_u64("o").unwrap(), Some(7));
        assert!(dec.bool("b").unwrap());
        assert_eq!(dec.f64().unwrap(), 0.5);
        dec.finish().unwrap();
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error() {
        let ck = sample();
        let bytes = ck.as_bytes();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            // Either the container header already fails, or the body
            // decode must fail — never a success, never a panic.
            let mut dec = Decoder::new(prefix);
            let result = dec.header().and_then(|_| {
                dec.u64()?;
                dec.str("s")?;
                dec.opt_u64("o")?;
                dec.bool("b")?;
                dec.f64()?;
                dec.finish()
            });
            assert!(result.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn bad_magic_and_version_are_distinguished() {
        let mut bytes = sample().into_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(
            Checkpoint::from_bytes(bytes).unwrap_err(),
            CheckpointError::BadMagic
        );

        let mut bytes = sample().into_bytes();
        bytes[Checkpoint::MAGIC.len()] = 99;
        assert_eq!(
            Checkpoint::from_bytes(bytes).unwrap_err(),
            CheckpointError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn every_readable_version_is_accepted_and_returned() {
        for version in Checkpoint::MIN_VERSION..=Checkpoint::VERSION {
            let mut bytes = sample().into_bytes();
            bytes[Checkpoint::MAGIC.len()] = version as u8;
            let ck = Checkpoint::from_bytes(bytes).unwrap();
            assert_eq!(ck.version(), version);
            assert_eq!(Decoder::new(ck.as_bytes()).header(), Ok(version));
        }
        let message = CheckpointError::UnsupportedVersion(1).to_string();
        assert!(message.contains("versions 2 to 3"), "{message}");
    }

    #[test]
    fn a_nested_checkpoint_is_the_finished_one_as_bytes() {
        let body = |enc: &mut Encoder| {
            enc.u64(42);
            enc.str("hello");
        };
        let mut inner = Encoder::new();
        body(&mut inner);
        let inner = inner.finish();

        let mut copied = Encoder::new();
        copied.u8(7);
        copied.bytes(inner.as_bytes());
        let mut nested = Encoder::new();
        nested.u8(7);
        assert_eq!(nested.nested(body), inner.as_bytes().len());
        assert_eq!(nested.finish(), copied.finish());
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left_over_their_width() {
        let mut enc = Encoder::new();
        enc.u64(3); // three 8-byte elements claimed, 24 bytes follow
        for v in [1u64, 2, 3] {
            enc.u64(v);
        }
        let bytes = enc.finish().into_bytes();
        let mut dec = Decoder::new(&bytes);
        dec.header().unwrap();
        assert_eq!(dec.len_of(8, "n"), Ok(3));
        let mut dec = Decoder::new(&bytes);
        dec.header().unwrap();
        // 24 bytes of elements plus the 4-byte end marker: not room for
        // three of 10 bytes each.
        assert_eq!(
            dec.len_of(10, "n"),
            Err(CheckpointError::Invalid { what: "n" })
        );
        let mut dec = Decoder::new(&bytes);
        dec.header().unwrap();
        assert_eq!(
            dec.len_of(usize::MAX, "n"),
            Err(CheckpointError::Invalid { what: "n" })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().into_bytes();
        bytes.push(0);
        let ck = Checkpoint::from_bytes(bytes).unwrap(); // header is fine
        let mut dec = Decoder::new(ck.as_bytes());
        dec.header().unwrap();
        dec.u64().unwrap();
        dec.str("s").unwrap();
        dec.opt_u64("o").unwrap();
        dec.bool("b").unwrap();
        dec.f64().unwrap();
        assert_eq!(
            dec.finish().unwrap_err(),
            CheckpointError::TrailingBytes { extra: 1 }
        );
    }

    #[test]
    fn oversized_length_prefix_is_invalid_not_oom() {
        let mut enc = Encoder::new();
        enc.u64(u64::MAX); // a length prefix promising 2^64 bytes
        let bytes = enc.finish().into_bytes();
        let mut dec = Decoder::new(&bytes);
        dec.header().unwrap();
        assert_eq!(
            dec.bytes("blob").unwrap_err(),
            CheckpointError::Invalid { what: "blob" }
        );
    }

    #[test]
    fn errors_render_for_humans() {
        for err in [
            CheckpointError::BadMagic,
            CheckpointError::UnsupportedVersion(9),
            CheckpointError::Truncated { offset: 3 },
            CheckpointError::TrailingBytes { extra: 2 },
            CheckpointError::Invalid { what: "field" },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    /// Regression for the torn-checkpoint failure mode `write_atomic`
    /// exists to rule out: a crash mid-rewrite must never leave a
    /// truncated file at the live path. The crash is simulated at its
    /// worst point — partial bytes staged in the `.tmp` sibling, rename
    /// never issued — and the live file must still load in full.
    #[test]
    fn write_atomic_never_exposes_a_truncated_tail() {
        let dir = std::env::temp_dir().join(format!("ckpt-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");

        // A good (large) checkpoint is on disk.
        let mut enc = Encoder::new();
        for i in 0..4096u64 {
            enc.u64(i);
        }
        let big = enc.finish();
        write_atomic(&path, big.as_bytes()).unwrap();

        // A later rewrite dies mid-write: torn bytes exist only in the
        // staging sibling, exactly where write_atomic puts them.
        let small = sample();
        let torn = &small.as_bytes()[..13];
        std::fs::write(dir.join("state.ckpt.tmp"), torn).unwrap();
        let loaded = Checkpoint::from_bytes(std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(loaded, big, "live checkpoint was disturbed by the crash");

        // The next successful write replaces the file wholesale — a
        // smaller payload must not leave any stale tail behind — and
        // consumes the stale staging file.
        write_atomic(&path, small.as_bytes()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), small.as_bytes());
        assert!(
            !dir.join("state.ckpt.tmp").exists(),
            "staging file must be renamed away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The directory synced after the rename is the one that names the
    /// file, and a bare file name lives in the working directory.
    #[test]
    fn write_atomic_syncs_the_directory_that_names_the_file() {
        assert_eq!(parent_dir(Path::new("state.ckpt")), Path::new("."));
        assert_eq!(parent_dir(Path::new("d/state.ckpt")), Path::new("d"));
        assert_eq!(parent_dir(Path::new("/state.ckpt")), Path::new("/"));
    }
}

//! Self-describing binary encoding for checkpoint payloads.
//!
//! Every field carries a one-byte type tag, and every variable-length
//! field a `u64` length prefix, so a decoder reading a truncated,
//! corrupted, or simply *wrong* payload fails with a typed error at the
//! first mismatched field instead of silently reinterpreting bytes.
//! Floating-point values round-trip through `to_le_bytes`/`from_le_bytes`
//! bit-for-bit — the restart-equivalence guarantee (resume a trajectory
//! bitwise) rests on this.

use std::fmt;

/// Errors from checkpoint encoding, decoding, and file I/O.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// Underlying file-system error (message carries the `io::Error`).
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The container version is not the one this build writes.
    BadVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The payload checksum does not match the header.
    BadChecksum,
    /// The file ends before the declared payload does.
    Truncated,
    /// A payload field failed to decode (wrong tag, bad length, bad value).
    Corrupt(String),
    /// The snapshot was taken under a different simulation configuration.
    ConfigMismatch,
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::BadMagic => write!(f, "not a dcmesh checkpoint (bad magic)"),
            CkptError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (expected {})",
                    super::file::FORMAT_VERSION
                )
            }
            CkptError::BadChecksum => write!(f, "checkpoint payload checksum mismatch"),
            CkptError::Truncated => write!(f, "checkpoint file truncated"),
            CkptError::Corrupt(what) => write!(f, "corrupt checkpoint payload: {what}"),
            CkptError::ConfigMismatch => {
                write!(f, "checkpoint was taken under a different configuration")
            }
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e.to_string())
    }
}

const TAG_U64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_F64_SLICE: u8 = 3;
const TAG_BYTES: u8 = 4;
const TAG_BOOL: u8 = 5;

/// FNV-1a 64-bit checksum over a byte slice.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// Append-only payload builder.
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty payload written into `buf`'s allocation (its bytes dropped).
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Finish and take the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.push(TAG_U64);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` (stored as `u64`).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` bit-exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.push(TAG_F64);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a bool.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(TAG_BOOL);
        self.buf.push(v as u8);
    }

    /// Append a length-prefixed `f64` slice bit-exactly.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_f64_rows(v.iter().map(|&x| [x]));
    }

    /// Append rows of `N` values as one `f64` slice, the rows one after the
    /// other (the bytes of [`Encoder::put_f64_slice`] of their
    /// concatenation): one resize, then a bulk copy.
    pub fn put_f64_rows<const N: usize>(&mut self, rows: impl ExactSizeIterator<Item = [f64; N]>) {
        let n = N * rows.len();
        self.buf.push(TAG_F64_SLICE);
        self.buf.extend_from_slice(&(n as u64).to_le_bytes());
        let at = self.buf.len();
        self.buf.resize(at + 8 * n, 0);
        for (out, row) in self.buf[at..].chunks_exact_mut(8 * N).zip(rows) {
            for (b, x) in out.chunks_exact_mut(8).zip(row) {
                b.copy_from_slice(&x.to_le_bytes());
            }
        }
    }

    /// Append length-prefixed raw bytes (e.g. a nested payload).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.push(TAG_BYTES);
        self.buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(v);
    }
}

/// Sequential payload reader; every `take_*` validates the field tag.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take_raw(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CkptError::Truncated)?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn expect_tag(&mut self, want: u8, what: &str) -> Result<(), CkptError> {
        let got = self.take_raw(1)?[0];
        if got != want {
            return Err(CkptError::Corrupt(format!(
                "expected {what} field (tag {want}), found tag {got} at offset {}",
                self.pos - 1
            )));
        }
        Ok(())
    }

    /// Read a `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CkptError> {
        self.expect_tag(TAG_U64, "u64")?;
        let b = self.take_raw(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a `usize`, rejecting values that do not fit.
    pub fn take_usize(&mut self) -> Result<usize, CkptError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| CkptError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Read an `f64` bit-exactly.
    pub fn take_f64(&mut self) -> Result<f64, CkptError> {
        self.expect_tag(TAG_F64, "f64")?;
        let b = self.take_raw(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a length-prefixed `f64` slice bit-exactly.
    pub fn take_f64_vec(&mut self) -> Result<Vec<f64>, CkptError> {
        self.expect_tag(TAG_F64_SLICE, "f64 slice")?;
        let n = u64::from_le_bytes(self.take_raw(8)?.try_into().expect("8 bytes"));
        let n = usize::try_from(n).map_err(|_| CkptError::Corrupt("slice too long".into()))?;
        let bytes = self
            .take_raw(n.checked_mul(8).ok_or(CkptError::Truncated)?)
            .map_err(|_| CkptError::Truncated)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_field_kind() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX);
        e.put_usize(12345);
        e.put_f64(-0.0);
        e.put_f64(f64::MIN_POSITIVE);
        e.put_f64_slice(&[1.0, f64::NAN, -3.5e300]);
        let payload = e.finish();
        let mut d = Decoder::new(&payload);
        assert_eq!(d.take_u64().unwrap(), u64::MAX);
        assert_eq!(d.take_usize().unwrap(), 12345);
        assert_eq!(d.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.take_f64().unwrap(), f64::MIN_POSITIVE);
        let v = d.take_f64_vec().unwrap();
        assert_eq!(v[0].to_bits(), 1.0f64.to_bits());
        assert_eq!(v[1].to_bits(), f64::NAN.to_bits());
        assert_eq!(v[2], -3.5e300);
        assert!(d.is_done());
    }

    #[test]
    fn bulk_slices_roundtrip_and_write_the_bytes_of_one_value_at_a_time() {
        // Lengths 0, 1 and odd, as slices and as rows of three, into a
        // dirty buffer of another payload.
        let one_by_one = |v: &[f64]| {
            let mut bytes = vec![TAG_F64_SLICE];
            bytes.extend_from_slice(&(v.len() as u64).to_le_bytes());
            v.iter()
                .for_each(|x| bytes.extend_from_slice(&x.to_le_bytes()));
            bytes
        };
        for n in [0, 1, 7] {
            let v: Vec<f64> = (0..3 * n).map(|i| (i as f64 - 2.5).powi(3) / 7.0).collect();
            let mut dirty = Encoder::new();
            dirty.put_f64_slice(&[f64::NAN; 40]);
            let mut e = Encoder::reusing(dirty.finish());
            e.put_f64_slice(&v[..n]);
            e.put_f64_rows(v.chunks_exact(3).map(|r| [r[0], r[1], r[2]]));
            let payload = e.finish();
            assert_eq!(
                payload,
                [one_by_one(&v[..n]), one_by_one(&v)].concat(),
                "{n}"
            );
            let mut d = Decoder::new(&payload);
            assert_eq!(d.take_f64_vec().unwrap(), v[..n], "{n}");
            assert_eq!(d.take_f64_vec().unwrap(), v, "{n}");
            assert!(d.is_done());
        }
    }

    #[test]
    fn wrong_tag_is_a_typed_error() {
        let mut e = Encoder::new();
        e.put_u64(1);
        let payload = e.finish();
        let mut d = Decoder::new(&payload);
        assert!(matches!(d.take_f64(), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn truncated_payload_is_detected() {
        let mut e = Encoder::new();
        e.put_f64_slice(&[1.0, 2.0, 3.0]);
        let payload = e.finish();
        let mut d = Decoder::new(&payload[..payload.len() - 4]);
        assert_eq!(d.take_f64_vec(), Err(CkptError::Truncated));
    }

    #[test]
    fn checksum_changes_on_any_flip() {
        let mut e = Encoder::new();
        e.put_f64_slice(&[0.25; 16]);
        let payload = e.finish();
        let base = checksum64(&payload);
        for i in 0..payload.len() {
            let mut copy = payload.clone();
            copy[i] ^= 0x01;
            assert_ne!(checksum64(&copy), base, "flip at byte {i} undetected");
        }
    }
}

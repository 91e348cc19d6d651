//! The checkpoint container: versioned, checksummed, atomically written.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0..8)    magic  b"DCMESHCK"
//! [8..12)   format version (u32)
//! [12..20)  payload length (u64)
//! [20..28)  FNV-1a 64 checksum of the payload (u64)
//! [28..)    payload
//! ```
//!
//! Writes go to `<path>.tmp` followed by `fs::rename`, so a crash at any
//! point leaves either the old checkpoint or the new one — never a torn
//! file. Reads validate magic, version, length, and checksum before the
//! payload is handed to a [`Decoder`](super::codec::Decoder).

use std::path::Path;

use super::codec::{checksum64, CkptError};

/// The container magic.
const MAGIC: &[u8; 8] = b"DCMESHCK";

/// Current container format version.
pub(super) const FORMAT_VERSION: u32 = 1;

const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Write `payload` as a checkpoint at `path` (temp file + atomic rename),
/// inside a `ckpt.write` span.
pub(crate) fn write_checkpoint_atomic(path: &Path, payload: &[u8]) -> Result<(), CkptError> {
    let _span = dcmesh_obs::span!("ckpt.write");
    let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
    file.extend_from_slice(MAGIC);
    file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&checksum64(payload).to_le_bytes());
    file.extend_from_slice(payload);

    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, &file)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and validate a checkpoint; returns the payload bytes.
pub(super) fn read_checkpoint(path: &Path) -> Result<Vec<u8>, CkptError> {
    let bytes = std::fs::read(path)?;
    parse_container(&bytes)
}

/// Validate a checkpoint container held in memory.
fn parse_container(bytes: &[u8]) -> Result<Vec<u8>, CkptError> {
    if bytes.len() < 8 || &bytes[..8] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(CkptError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(CkptError::BadVersion { found: version });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let want = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let len = usize::try_from(len).map_err(|_| CkptError::Truncated)?;
    let payload = HEADER_LEN
        .checked_add(len)
        .and_then(|end| bytes.get(HEADER_LEN..end))
        .ok_or(CkptError::Truncated)?;
    if checksum64(payload) != want {
        return Err(CkptError::BadChecksum);
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dcmesh_checkpoint_test_{}_{tag}_{n}.ckpt",
            std::process::id()
        ))
    }

    #[test]
    fn write_read_roundtrip() {
        let path = scratch_path("roundtrip");
        let payload: Vec<u8> = (0..=255).collect();
        write_checkpoint_atomic(&path, &payload).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), payload);
        // No temp file left behind.
        assert!(!path.with_extension("ckpt.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overwrite_replaces_atomically() {
        let path = scratch_path("overwrite");
        write_checkpoint_atomic(&path, b"first").unwrap();
        write_checkpoint_atomic(&path, b"second").unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), b"second");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = vec![0u8; 64];
        bytes[..8].copy_from_slice(b"NOTDCMSH");
        assert_eq!(parse_container(&bytes), Err(CkptError::BadMagic));
    }

    #[test]
    fn wrong_version_rejected() {
        let path = scratch_path("version");
        write_checkpoint_atomic(&path, b"payload").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            parse_container(&bytes),
            Err(CkptError::BadVersion { found: 99 })
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_payload_rejected() {
        let path = scratch_path("corrupt");
        write_checkpoint_atomic(&path, &[7u8; 128]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        assert_eq!(parse_container(&bytes), Err(CkptError::BadChecksum));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = scratch_path("truncated");
        write_checkpoint_atomic(&path, &[3u8; 128]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [bytes.len() - 1, HEADER_LEN + 5, HEADER_LEN, 10] {
            assert_eq!(
                parse_container(&bytes[..cut]),
                Err(CkptError::Truncated),
                "cut at {cut}"
            );
        }
        // Cutting inside the magic loses the signature itself.
        assert_eq!(parse_container(&bytes[..4]), Err(CkptError::BadMagic));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_length_past_the_address_space_is_truncated_not_a_panic() {
        let path = scratch_path("hostile_len");
        write_checkpoint_atomic(&path, b"payload").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // HEADER_LEN + this length does not fit a 64-bit usize.
        bytes[12..20].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        assert_eq!(parse_container(&bytes), Err(CkptError::Truncated));
    }
}

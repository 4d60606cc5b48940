//! View checkpoints.
//!
//! `views.bin` holds an opaque body (the maintenance engine's serialised
//! view states) stamped with the epoch and WAL frame count it was
//! consistent at. On open, a view checkpoint from the current epoch is
//! caught up by replaying the WAL tail past its frame count; one from any
//! older epoch is stale and the views are recomputed from scratch — so a
//! crash at *any* point leaves views recoverable, at worst at
//! recomputation cost.
//!
//! ## On-disk layout
//!
//! ```text
//! views    := magic "NDBVIEW1" (8) ++ epoch (u64 LE) ++ frames (u64 LE)
//!           ++ body_len (u64 LE)
//!           ++ crc (u32 LE, CRC32 of epoch ++ frames ++ body_len ++ body)
//!           ++ body (opaque to this crate)
//! ```

use crate::StorageError;
use std::path::Path;

/// Magic bytes opening the view-checkpoint file.
pub const VIEWS_MAGIC: &[u8; 8] = b"NDBVIEW1";
/// Bytes of views header: magic, epoch, frame count, body length, CRC.
pub const VIEWS_HEADER_LEN: usize = 8 + 8 + 8 + 8 + 4;

/// A decoded view checkpoint: an opaque body consistent with the
/// database state at `epoch` after `frames` WAL frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewsCheckpoint {
    /// The epoch the views were consistent with.
    pub epoch: u64,
    /// WAL frames of that epoch already folded into the views.
    pub frames: u64,
    /// The maintenance engine's serialised view states.
    pub body: Vec<u8>,
}

/// Serialise a view checkpoint.
pub fn encode_views(epoch: u64, frames: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(VIEWS_HEADER_LEN + body.len());
    out.extend_from_slice(VIEWS_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&frames.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&views_crc(epoch, frames, body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

fn views_crc(epoch: u64, frames: u64, body: &[u8]) -> u32 {
    let mut c = crate::crc::Crc32::new();
    c.update(&epoch.to_le_bytes());
    c.update(&frames.to_le_bytes());
    c.update(&(body.len() as u64).to_le_bytes());
    c.update(body);
    c.finish()
}

/// Decode a view checkpoint, verifying magic, length, and checksum.
pub fn decode_views(bytes: &[u8], path: &Path) -> Result<ViewsCheckpoint, StorageError> {
    if bytes.len() < VIEWS_HEADER_LEN {
        return Err(StorageError::corrupt(
            path,
            0,
            format!("view checkpoint header truncated at {} bytes", bytes.len()),
        ));
    }
    if &bytes[..8] != VIEWS_MAGIC {
        return Err(StorageError::corrupt(path, 0, "bad view checkpoint magic"));
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let frames = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let body_len = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let stored_crc = u32::from_le_bytes(bytes[32..36].try_into().expect("4 bytes"));
    let body = &bytes[VIEWS_HEADER_LEN..];
    if body_len != body.len() as u64 {
        return Err(StorageError::corrupt(
            path,
            24,
            format!(
                "view checkpoint body is {} bytes but header claims {body_len}",
                body.len()
            ),
        ));
    }
    if views_crc(epoch, frames, body) != stored_crc {
        return Err(StorageError::corrupt(
            path,
            32,
            "view checkpoint checksum mismatch",
        ));
    }
    Ok(ViewsCheckpoint {
        epoch,
        frames,
        body: body.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_roundtrip_and_flips_detected() {
        let bytes = encode_views(5, 12, b"opaque view state");
        let ck = decode_views(&bytes, Path::new("v")).unwrap();
        assert_eq!(ck.epoch, 5);
        assert_eq!(ck.frames, 12);
        assert_eq!(ck.body, b"opaque view state");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_views(&bad, Path::new("v")).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn empty_views() {
        let v = decode_views(&encode_views(0, 0, b""), Path::new("v")).unwrap();
        assert!(v.body.is_empty());
    }
}

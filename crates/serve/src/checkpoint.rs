//! Coordinator checkpoint/restore.
//!
//! The daemon persists its recoverable state — the cache index and
//! every submission that has not yet fully completed — to a named file
//! on a cadence, after every submission completes, and on graceful
//! stop. The format is a single self-checking record:
//!
//! ```text
//! [magic "PPSC"] [version u32 = 1]
//! [cache count u32]  { tag str, request bytes, result bytes } ...
//! [submission count u32]
//!     { client u64, submission u64, priority u8,
//!       unit count u32, { tag str, payload bytes } ... } ...
//! [FNV-1a-64 checksum over everything above]
//! ```
//!
//! Writes are atomic (tmp file + rename), so a crash mid-checkpoint
//! leaves the previous checkpoint intact. Leases are deliberately NOT
//! persisted: after a restart no worker connections exist, so a leased
//! unit is indistinguishable from a queued one — restore simply
//! re-submits every incomplete submission and lets the cache instantly
//! complete the cells that finished before the crash (the same
//! re-execute-from-the-last-image discipline as the paper's JIT
//! checkpointing).

use crate::cache::{fnv64, CacheEntry, FNV64_OFFSET};
use ppa_grid::proto::{ByteReader, ByteWriter};
use ppa_grid::UnitSpec;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"PPSC";
const VERSION: u32 = 1;

/// A submission that still owes its client results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingSubmission {
    pub client: u64,
    pub submission: u64,
    pub priority: u8,
    pub units: Vec<UnitSpec>,
}

/// Everything a restarted daemon needs to resume.
#[derive(Debug, Default)]
pub struct Checkpoint {
    pub cache: Vec<CacheEntry>,
    pub pending: Vec<PendingSubmission>,
}

impl Checkpoint {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(self.cache.len() as u32);
        for e in &self.cache {
            w.put_str(&e.tag);
            w.put_bytes(&e.request);
            w.put_bytes(&e.result);
        }
        w.put_u32(self.pending.len() as u32);
        for s in &self.pending {
            w.put_u64(s.client);
            w.put_u64(s.submission);
            w.put_u8(s.priority);
            w.put_u32(s.units.len() as u32);
            for u in &s.units {
                w.put_str(&u.tag);
                w.put_bytes(&u.payload);
            }
        }
        let body = w.into_bytes();
        let mut out = Vec::with_capacity(body.len() + 16);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&body);
        let ck = fnv64(FNV64_OFFSET, &out);
        out.extend_from_slice(&ck.to_le_bytes());
        out
    }

    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, String> {
        if bytes.len() < 16 {
            return Err("checkpoint truncated".into());
        }
        if &bytes[0..4] != MAGIC {
            return Err("checkpoint has a bad magic".into());
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(format!("checkpoint version {version} is unknown"));
        }
        let body_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
        let computed = fnv64(FNV64_OFFSET, &bytes[..body_end]);
        if stored != computed {
            return Err("checkpoint checksum mismatch".into());
        }
        let e = |e: ppa_grid::ProtoError| format!("checkpoint malformed: {e}");
        let mut r = ByteReader::new(&bytes[8..body_end]);
        let n_cache = r.u32().map_err(e)?;
        // Counts come from disk; push without preallocating so a
        // corrupt file fails at the element reads, not with an OOM.
        let mut cache = Vec::new();
        for _ in 0..n_cache {
            cache.push(CacheEntry {
                tag: r.str().map_err(e)?,
                request: r.bytes().map_err(e)?.to_vec(),
                result: r.bytes().map_err(e)?.to_vec(),
            });
        }
        let n_pending = r.u32().map_err(e)?;
        let mut pending = Vec::new();
        for _ in 0..n_pending {
            let client = r.u64().map_err(e)?;
            let submission = r.u64().map_err(e)?;
            let priority = r.u8().map_err(e)?;
            let n_units = r.u32().map_err(e)?;
            let mut units = Vec::new();
            for _ in 0..n_units {
                units.push(UnitSpec {
                    tag: r.str().map_err(e)?,
                    payload: r.bytes().map_err(e)?.to_vec(),
                });
            }
            pending.push(PendingSubmission {
                client,
                submission,
                priority,
                units,
            });
        }
        r.finish().map_err(e)?;
        Ok(Checkpoint { cache, pending })
    }

    /// Atomically writes the checkpoint: a crash mid-write leaves the
    /// previous file intact.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Loads a checkpoint; `Ok(None)` when the file does not exist.
    pub fn load(path: &Path) -> Result<Option<Checkpoint>, String> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        };
        Checkpoint::decode(&bytes).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            cache: vec![CacheEntry {
                tag: "repro.app:fig1/gcc".into(),
                request: vec![1, 2],
                result: vec![3, 4, 5],
            }],
            pending: vec![PendingSubmission {
                client: 7,
                submission: 1,
                priority: 200,
                units: vec![UnitSpec {
                    tag: "oracle.cell:mcf".into(),
                    payload: vec![9],
                }],
            }],
        }
    }

    #[test]
    fn round_trips() {
        let ck = sample();
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back.cache, ck.cache);
        assert_eq!(back.pending, ck.pending);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(Checkpoint::decode(&bytes).unwrap_err().contains("checksum"));
        assert!(Checkpoint::decode(&bytes[..10]).is_err());
        assert!(Checkpoint::decode(b"XXXXxxxxxxxxxxxxxxxx").is_err());
    }

    #[test]
    fn save_load_round_trips_and_missing_is_none() {
        let dir = std::env::temp_dir().join(format!("ppsc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ppsc");
        assert!(Checkpoint::load(&path).unwrap().is_none());
        sample().save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap().unwrap();
        assert_eq!(back.pending, sample().pending);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A daemon killed mid-`save` leaves its tmp file behind, truncated
    /// or garbage, next to the last complete checkpoint.
    #[test]
    fn a_write_killed_mid_save_leaves_the_previous_checkpoint() {
        let dir = std::env::temp_dir().join(format!("ppsc-kill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ppsc");
        let tmp = dir.join("state.tmp");
        sample().save(&path).unwrap();
        let newer = Checkpoint {
            cache: Vec::new(),
            pending: vec![PendingSubmission {
                client: 8,
                submission: 2,
                priority: 1,
                units: Vec::new(),
            }],
        };
        let image = newer.encode();
        for junk in [&image[..image.len() / 2], b"garbage"] {
            std::fs::write(&tmp, junk).unwrap();
            let back = Checkpoint::load(&path).unwrap().unwrap();
            assert_eq!(back.cache, sample().cache);
            assert_eq!(back.pending, sample().pending);
        }
        // The next save overwrites the stale tmp file and lands.
        newer.save(&path).unwrap();
        assert!(!tmp.exists(), "the rename consumed the tmp file");
        let back = Checkpoint::load(&path).unwrap().unwrap();
        assert_eq!(back.pending, newer.pending);
        assert!(back.cache.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Cache & checkpoint management (paper §4.1.1).
//!
//! The executor stores the dataset after each OP under a directory keyed by
//! the recipe fingerprint. Two modes mirror the paper's space/time
//! trade-off:
//!
//! * **Cache mode** — every OP's output is kept, so a re-run with a
//!   modified recipe resumes from the longest shared prefix of the OP list
//!   (small adjustments re-execute only the tail).
//! * **Checkpoint mode** — only the most recent OP's output is kept; older
//!   entries are cleaned up after each successful save (Appendix A.2's
//!   3×S peak-space pipeline).
//!
//! Every entry is a stream of one or more `DJSC` shard frames, so entries
//! are checksummed end to end and spilled stages persist (and resume) by
//! copying frames, never by decoding them. Entry regions are compressed
//! with the manager's [`Codec`].

use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use dj_core::{Dataset, Result};

use crate::codec::Codec;
use crate::shard_stream::{read_frame_slab, read_shard_stream, write_shard_frame, ShardSpool};

/// File extension of cache entries; the digit is the cache format
/// version. Version 2 entries are `DJSC` frame streams. Entries of older
/// versions (`.djc`: unchecksummed whole-dataset payloads or row-frame
/// streams) are never listed, so a version bump makes them go cold
/// instead of being parsed.
pub const CACHE_ENTRY_EXT: &str = "djc2";

/// Cache retention policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Keep every OP's output (max storage, min re-execution).
    Cache,
    /// Keep only the latest OP's output (min storage, more re-execution).
    Checkpoint,
    /// Keep nothing (baseline / benchmark mode).
    Disabled,
}

/// Directory-backed cache of per-OP dataset snapshots.
pub struct CacheManager {
    root: PathBuf,
    mode: CacheMode,
    codec: Codec,
    recipe_fingerprint: u64,
}

impl CacheManager {
    /// Create a manager rooted at `dir` for a recipe with the given
    /// fingerprint. The directory is created on demand.
    pub fn new(dir: impl Into<PathBuf>, recipe_fingerprint: u64, mode: CacheMode) -> CacheManager {
        CacheManager {
            root: dir.into(),
            mode,
            codec: Codec::Djz,
            recipe_fingerprint,
        }
    }

    pub fn with_codec(mut self, codec: Codec) -> CacheManager {
        self.codec = codec;
        self
    }

    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The cache root directory (shared across recipes). The adaptive
    /// planner parks its stats sidecar here so measurements survive across
    /// runs that share a cache.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Default path of the planner-stats sidecar under this cache root.
    /// Sidecar knowledge is recipe-independent (ops keep their names across
    /// recipes), so it lives at the root, not in a `recipe-*` subdir.
    pub fn stats_sidecar_path(&self) -> PathBuf {
        self.root.join(crate::sidecar::STATS_SIDECAR_FILE)
    }

    fn dir(&self) -> PathBuf {
        self.root
            .join(format!("recipe-{:016x}", self.recipe_fingerprint))
    }

    fn entry_path(&self, op_index: usize, op_name: &str) -> PathBuf {
        self.dir().join(format!(
            "{op_index:04}-{}.{CACHE_ENTRY_EXT}",
            safe_name(op_name)
        ))
    }

    /// Persist the dataset state after OP `op_index` as one frame per
    /// shard, straight from the borrowed shards — no clone, no merge.
    pub fn save_shards(
        &self,
        op_index: usize,
        op_name: &str,
        shards: &[Dataset],
    ) -> Result<PathBuf> {
        self.commit(op_index, op_name, |out| {
            for shard in shards {
                write_shard_frame(out, shard, self.codec)?;
            }
            Ok(())
        })
    }

    /// Persist a spilled stage by concatenating its spool's frame files
    /// into the entry — no decode/re-encode round-trip and no
    /// materialization; one sequential copy per shard.
    pub fn save_spool(
        &self,
        op_index: usize,
        op_name: &str,
        spool: &ShardSpool,
    ) -> Result<PathBuf> {
        self.commit(op_index, op_name, |out| {
            for i in 0..spool.shard_count() {
                spool.copy_shard_frame_into(i, out)?;
            }
            Ok(())
        })
    }

    /// Write an entry through `fill` to a temp file and atomically rename
    /// it into place. In checkpoint mode, earlier entries are removed
    /// *after* the new entry is safely written (so a crash can at worst
    /// leave one extra file, never zero).
    fn commit(
        &self,
        op_index: usize,
        op_name: &str,
        fill: impl FnOnce(&mut BufWriter<fs::File>) -> Result<()>,
    ) -> Result<PathBuf> {
        if self.mode == CacheMode::Disabled {
            return Ok(PathBuf::new());
        }
        let dir = self.dir();
        fs::create_dir_all(&dir)?;
        let path = self.entry_path(op_index, op_name);
        let tmp = path.with_extension("tmp");
        let write = || -> Result<()> {
            let mut out = BufWriter::new(fs::File::create(&tmp)?);
            fill(&mut out)?;
            out.flush()?;
            Ok(())
        };
        if let Err(e) = write() {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, &path)?;
        if self.mode == CacheMode::Checkpoint {
            for entry in list_entries(&dir)? {
                if entry.op_index != op_index {
                    let _ = fs::remove_file(&entry.path);
                }
            }
        }
        Ok(path)
    }

    /// Load the dataset state after OP `op_index`, if cached.
    pub fn load(&self, op_index: usize, op_name: &str) -> Result<Option<Dataset>> {
        let path = self.entry_path(op_index, op_name);
        if !path.exists() {
            return Ok(None);
        }
        read_entry(&path).map(Some)
    }

    /// The cache entry for the longest prefix of `ops` (matched by
    /// `(index, name)`), if any — enabling resume-after-change (§4.1.1).
    fn latest_entry(&self, ops: &[(usize, String)]) -> Result<Option<(usize, PathBuf)>> {
        let dir = self.dir();
        if !dir.exists() {
            return Ok(None);
        }
        let entries = list_entries(&dir)?;
        Ok(ops.iter().rev().find_map(|(idx, name)| {
            entries
                .iter()
                .find(|e| e.op_index == *idx && e.op_name == safe_name(name))
                .map(|e| (*idx, e.path.clone()))
        }))
    }

    /// The most recent cached state whose `(index, name)` matches a prefix
    /// of `ops`: returns `(op_index, dataset)` for the longest usable
    /// entry, decoded into memory.
    pub fn latest_match(&self, ops: &[(usize, String)]) -> Result<Option<(usize, Dataset)>> {
        match self.latest_entry(ops)? {
            Some((idx, path)) => Ok(Some((idx, read_entry(&path)?))),
            None => Ok(None),
        }
    }

    /// Like [`CacheManager::latest_match`], but the entry is rehydrated
    /// frame by frame into a [`ShardSpool`] under `spool_dir` instead of
    /// being decoded: each frame is checksum-verified and copied into its
    /// slot, so at most one frame is in memory at a time and resume keeps
    /// the out-of-core memory ceiling. `spool_dir` is only created when an
    /// entry is actually found.
    pub fn latest_match_streamed(
        &self,
        ops: &[(usize, String)],
        spool_dir: PathBuf,
    ) -> Result<Option<(usize, ShardSpool)>> {
        let Some((idx, path)) = self.latest_entry(ops)? else {
            return Ok(None);
        };
        let mut reader = BufReader::new(fs::File::open(&path)?);
        let spool = ShardSpool::create(spool_dir, 0, self.codec)?;
        let mut i = 0;
        while let Some(slab) = read_frame_slab(&mut reader)? {
            spool.write_frame_bytes(i, slab.frame(), slab.sample_count())?;
            i += 1;
        }
        Ok(Some((idx, spool)))
    }

    /// Total bytes used by this recipe's cache entries.
    pub fn disk_usage(&self) -> Result<u64> {
        let dir = self.dir();
        if !dir.exists() {
            return Ok(0);
        }
        let mut total = 0;
        for e in list_entries(&dir)? {
            total += fs::metadata(&e.path)?.len();
        }
        Ok(total)
    }

    /// Number of stored entries.
    pub fn entry_count(&self) -> Result<usize> {
        let dir = self.dir();
        if !dir.exists() {
            return Ok(0);
        }
        Ok(list_entries(&dir)?.len())
    }

    /// Remove every entry for this recipe.
    pub fn clear(&self) -> Result<()> {
        let dir = self.dir();
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        Ok(())
    }
}

/// Decode a whole cache entry into one dataset.
fn read_entry(path: &Path) -> Result<Dataset> {
    read_shard_stream(BufReader::new(fs::File::open(path)?))
}

struct Entry {
    op_index: usize,
    op_name: String,
    path: PathBuf,
}

/// Encode an op/stage name into a filesystem-safe filename component.
///
/// Stage-keyed entries concatenate every member step name, which can
/// exceed the 255-byte filename limit; long names keep a readable prefix
/// and append a stable hash of the full name.
fn safe_name(name: &str) -> String {
    const MAX: usize = 96;
    let clean: String = name
        .chars()
        .map(|c| {
            if c == '/' || c == '\\' || c == '\0' {
                '_'
            } else {
                c
            }
        })
        .collect();
    if clean.len() <= MAX {
        return clean;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in clean.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut prefix_end = MAX - 17; // room for `~` + 16 hex digits
    while !clean.is_char_boundary(prefix_end) {
        prefix_end -= 1;
    }
    format!("{}~{h:016x}", &clean[..prefix_end])
}

fn list_entries(dir: &Path) -> Result<Vec<Entry>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_suffix(CACHE_ENTRY_EXT)
            .and_then(|s| s.strip_suffix('.'))
        else {
            continue;
        };
        let Some((idx, op_name)) = stem.split_once('-') else {
            continue;
        };
        let Ok(op_index) = idx.parse::<usize>() else {
            continue;
        };
        out.push(Entry {
            op_index,
            op_name: op_name.to_string(),
            path,
        });
    }
    out.sort_by_key(|e| e.op_index);
    Ok(out)
}

/// Best-effort removal of a whole cache root (test/bench hygiene).
pub fn remove_cache_root(root: &Path) {
    let _ = fs::remove_dir_all(root);
}

impl Drop for CacheManager {
    fn drop(&mut self) {
        // Nothing: entries intentionally outlive the manager so later runs
        // can resume. Call `clear()` for explicit cleanup.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dj_core::Sample;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dj-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn ds(n: usize) -> Dataset {
        Dataset::from_samples(
            (0..n)
                .map(|i| Sample::from_text(format!("document number {i} with body text")))
                .collect(),
        )
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let cm = CacheManager::new(&dir, 0xABCD, CacheMode::Cache);
        let d = ds(10);
        cm.save_shards(0, "op_a", std::slice::from_ref(&d)).unwrap();
        let loaded = cm.load(0, "op_a").unwrap().unwrap();
        assert_eq!(loaded, d);
        assert!(cm.load(1, "op_b").unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn cache_mode_keeps_all_checkpoint_keeps_last() {
        let dir = tmpdir("modes");
        let cache = CacheManager::new(&dir, 1, CacheMode::Cache);
        for i in 0..4 {
            cache.save_shards(i, "op", &[ds(5)]).unwrap();
        }
        assert_eq!(cache.entry_count().unwrap(), 4);

        let ckpt = CacheManager::new(&dir, 2, CacheMode::Checkpoint);
        for i in 0..4 {
            ckpt.save_shards(i, "op", &[ds(5)]).unwrap();
        }
        assert_eq!(ckpt.entry_count().unwrap(), 1);
        assert!(ckpt.load(3, "op").unwrap().is_some());
        assert!(ckpt.load(2, "op").unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn disabled_mode_writes_nothing() {
        let dir = tmpdir("disabled");
        let cm = CacheManager::new(&dir, 3, CacheMode::Disabled);
        cm.save_shards(0, "op", &[ds(5)]).unwrap();
        assert_eq!(cm.entry_count().unwrap(), 0);
        remove_cache_root(&dir);
    }

    #[test]
    fn latest_match_resumes_from_prefix() {
        let dir = tmpdir("resume");
        let cm = CacheManager::new(&dir, 4, CacheMode::Cache);
        cm.save_shards(0, "clean", &[ds(10)]).unwrap();
        cm.save_shards(1, "filter", &[ds(8)]).unwrap();
        cm.save_shards(2, "dedup", &[ds(6)]).unwrap();
        // Recipe changed after index 1: only the prefix matches.
        let ops = vec![
            (0usize, "clean".to_string()),
            (1, "filter".to_string()),
            (2, "different_op".to_string()),
        ];
        let (idx, d) = cm.latest_match(&ops).unwrap().unwrap();
        assert_eq!(idx, 1);
        assert_eq!(d.len(), 8);
        remove_cache_root(&dir);
    }

    #[test]
    fn different_fingerprints_are_isolated() {
        let dir = tmpdir("fingerprints");
        let a = CacheManager::new(&dir, 10, CacheMode::Cache);
        let b = CacheManager::new(&dir, 11, CacheMode::Cache);
        a.save_shards(0, "op", &[ds(3)]).unwrap();
        assert!(b.load(0, "op").unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn disk_usage_and_clear() {
        let dir = tmpdir("usage");
        let cm = CacheManager::new(&dir, 12, CacheMode::Cache);
        assert_eq!(cm.disk_usage().unwrap(), 0);
        cm.save_shards(0, "op", &[ds(50)]).unwrap();
        assert!(cm.disk_usage().unwrap() > 0);
        cm.clear().unwrap();
        assert_eq!(cm.entry_count().unwrap(), 0);
        remove_cache_root(&dir);
    }

    #[test]
    fn long_stage_names_are_hashed_into_safe_filenames() {
        // Stage-keyed entries join every member step name; a 20-op stage
        // easily exceeds the 255-byte filename limit.
        let long_a: String = (0..24)
            .map(|i| format!("some_rather_long_operator_name_{i}"))
            .collect::<Vec<_>>()
            .join("+");
        let long_b = format!("{long_a}+one_more_op");
        assert!(safe_name(&long_a).len() <= 96);
        assert_ne!(safe_name(&long_a), safe_name(&long_b));
        assert_eq!(safe_name("short_op"), "short_op");

        let dir = tmpdir("longnames");
        let cm = CacheManager::new(&dir, 21, CacheMode::Cache);
        cm.save_shards(0, &long_a, &[ds(4)]).unwrap();
        assert_eq!(cm.load(0, &long_a).unwrap().unwrap(), ds(4));
        // latest_match resolves through the same encoding.
        let (idx, d) = cm
            .latest_match(&[(0usize, long_a.clone())])
            .unwrap()
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(d, ds(4));
        // A different long name does not collide.
        assert!(cm.load(0, &long_b).unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn multi_shard_entries_load_and_rehydrate_by_frame_copy() {
        let dir = tmpdir("streamed");
        let cm = CacheManager::new(&dir, 31, CacheMode::Cache);
        let full = ds(10);
        let shards: Vec<Dataset> = full.clone().into_shards(3);
        cm.save_shards(0, "stage_a", &shards).unwrap();
        assert_eq!(cm.load(0, "stage_a").unwrap().unwrap(), full);
        let (idx, back) = cm
            .latest_match(&[(0usize, "stage_a".to_string())])
            .unwrap()
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(back, full);
        // Rehydration keeps the shard boundaries, one slot per frame.
        let (idx, spool) = cm
            .latest_match_streamed(&[(0usize, "stage_a".to_string())], dir.join("spool"))
            .unwrap()
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(spool.shard_count(), 3);
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(&spool.read_shard(i).unwrap(), shard);
        }
        remove_cache_root(&dir);
    }

    #[test]
    fn corrupt_entries_fail_loudly_and_old_versions_stay_cold() {
        let dir = tmpdir("corrupt");
        let cm = CacheManager::new(&dir, 32, CacheMode::Cache);
        let path = cm.save_shards(0, "op", &[ds(6)]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let ops = [(0usize, "op".to_string())];
        assert!(cm.load(0, "op").is_err());
        assert!(cm.latest_match(&ops).is_err());
        assert!(cm.latest_match_streamed(&ops, dir.join("spool")).is_err());
        // An entry under the previous format's name is invisible.
        fs::remove_file(&path).unwrap();
        fs::write(path.with_extension("djc"), b"whatever the old format held").unwrap();
        assert_eq!(cm.entry_count().unwrap(), 0);
        assert!(cm.latest_match(&ops).unwrap().is_none());
        remove_cache_root(&dir);
    }

    #[test]
    fn compression_reduces_cache_size() {
        let dir = tmpdir("codec");
        let raw = CacheManager::new(&dir, 13, CacheMode::Cache).with_codec(Codec::None);
        let packed = CacheManager::new(&dir, 14, CacheMode::Cache).with_codec(Codec::Djz);
        // Repetitive dataset → compressible.
        let d = Dataset::from_texts((0..100).map(|_| "repeat repeat repeat repeat".to_string()));
        raw.save_shards(0, "op", std::slice::from_ref(&d)).unwrap();
        packed
            .save_shards(0, "op", std::slice::from_ref(&d))
            .unwrap();
        assert!(packed.disk_usage().unwrap() < raw.disk_usage().unwrap() / 2);
        // And still loads correctly.
        assert_eq!(packed.load(0, "op").unwrap().unwrap(), d);
        remove_cache_root(&dir);
    }
}

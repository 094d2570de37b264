//! Shard frame streams and the disk spool: how `DJSC` frames (see
//! [`crate::columnar`]) are laid out on disk.
//!
//! Two layouts build on the frame:
//!
//! * a *frame stream* — frames appended back to back in one file
//!   ([`write_shard_frame`] / [`read_shard_frame`]), the layout of cache
//!   entries. The length prefix makes frames skippable; truncated or
//!   corrupted frames are reported as clean [`DjError::Storage`] errors —
//!   never a panic, never silently short data;
//! * a [`ShardSpool`] — a directory with one frame file per shard, the
//!   disk backing of the executor's spill path. Files are written to a
//!   temporary name and atomically renamed, so a reader (or a restarted
//!   run) never observes a partial frame. The spool removes its directory
//!   on drop.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dj_core::{Dataset, DjError, Result, ShardSink, ShardSource, Value};
use dj_hash::fnv1a;

use crate::codec::Codec;
use crate::columnar::{encode_columnar_frame, frame_payload_len, ColumnarSlab, HEADER_LEN};
use crate::serialize::{le_u64, values_from_bytes, values_to_bytes};

/// Magic prefix of fingerprint sidecar files (`shard-N.fpr`).
pub const FINGERPRINT_MAGIC: &[u8; 4] = b"DJFP";

/// Append one shard frame to a writer; returns the bytes written.
pub fn write_shard_frame<W: Write>(w: &mut W, shard: &Dataset, codec: Codec) -> Result<u64> {
    let frame = encode_columnar_frame(shard, codec);
    w.write_all(&frame)?;
    Ok(frame.len() as u64)
}

/// Read the next shard frame from a stream and decode it.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
/// boundary). A frame cut off mid-header or mid-payload, a bad magic, an
/// implausible length, or a checksum mismatch all yield a descriptive
/// [`DjError::Storage`].
pub fn read_shard_frame<R: Read>(r: &mut R) -> Result<Option<Dataset>> {
    match read_frame_slab(r)? {
        Some(slab) => slab.decode().map(Some),
        None => Ok(None),
    }
}

/// Read and verify the next frame of a stream without decoding any
/// column. The buffer grows with the bytes actually read, so a corrupt
/// length prefix can never turn into a huge up-front allocation.
pub(crate) fn read_frame_slab<R: Read>(r: &mut R) -> Result<Option<ColumnarSlab>> {
    let mut frame = Vec::with_capacity(HEADER_LEN);
    r.by_ref().take(HEADER_LEN as u64).read_to_end(&mut frame)?;
    if frame.is_empty() {
        return Ok(None);
    }
    let len = frame_payload_len(&frame)?;
    r.take(len).read_to_end(&mut frame)?;
    ColumnarSlab::from_frame(frame).map(Some)
}

/// Read a whole multi-frame stream into one dataset (frames concatenate in
/// order, mirroring `Dataset::from_shards`).
pub fn read_shard_stream<R: Read>(mut r: R) -> Result<Dataset> {
    let mut out = Dataset::new();
    while let Some(shard) = read_shard_frame(&mut r)? {
        out.extend(shard);
    }
    Ok(out)
}

/// A directory of shard frame files: the disk backing of spilled stages.
///
/// Slot `i` lives in `shard-i.djs`, written atomically (temp file + rename)
/// so crashes and concurrent readers never see partial frames. Distinct
/// slots may be written concurrently. The directory and its contents are
/// removed when the spool drops.
pub struct ShardSpool {
    dir: PathBuf,
    codec: Codec,
    /// Sample count per written slot (`None` until stored) — the shard
    /// layout metadata the dedup barrier needs to slice its dataset-level
    /// mask back into shards. Grows on demand so streaming ingest can
    /// append slots before the total shard count is known.
    lens: Mutex<Vec<Option<usize>>>,
}

impl ShardSpool {
    /// Create a spool with `slots` shard slots rooted at `dir` (created,
    /// including parents, if missing). Writing past `slots` grows the
    /// spool — pass 0 for a stream of unknown length.
    pub fn create(dir: impl Into<PathBuf>, slots: usize, codec: Codec) -> Result<ShardSpool> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ShardSpool {
            dir,
            codec,
            lens: Mutex::new(vec![None; slots]),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn shard_count(&self) -> usize {
        dj_core::sync::lock(&self.lens).len()
    }

    fn slot_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("shard-{idx:05}.djs"))
    }

    fn sidecar_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("shard-{idx:05}.fpr"))
    }

    /// Encode `shard` into slot `idx` (atomic: temp file then rename).
    pub fn write_shard(&self, idx: usize, shard: &Dataset) -> Result<()> {
        let frame = encode_columnar_frame(shard, self.codec);
        self.write_frame_bytes(idx, &frame, shard.len())
    }

    /// Store a pre-encoded frame (e.g. the output of a column splice, or a
    /// frame copied out of a cache entry) into slot `idx` atomically,
    /// recording `samples` as the slot's sample count.
    pub fn write_frame_bytes(&self, idx: usize, frame: &[u8], samples: usize) -> Result<()> {
        let path = self.slot_path(idx);
        let tmp = path.with_extension("djs.tmp");
        if dj_core::faults::armed("store.frame.write") {
            // Chaos path: damage the bytes *after* the frame checksum was
            // computed, like real media corruption — the error surfaces
            // at whichever read validates this slot.
            let mut bytes = frame.to_vec();
            dj_core::faults::corrupt("store.frame.write", &mut bytes)?;
            fs::write(&tmp, &bytes)?;
        } else {
            fs::write(&tmp, frame)?;
        }
        fs::rename(&tmp, &path)?;
        let mut lens = dj_core::sync::lock(&self.lens);
        if idx >= lens.len() {
            lens.resize(idx + 1, None);
        }
        lens[idx] = Some(samples);
        Ok(())
    }

    /// Persist per-sample dedup fingerprints for slot `idx` in its sidecar
    /// (`shard-N.fpr`, atomic temp+rename). Fingerprints travel with the
    /// frame so a later dedup barrier can skip its hash pass entirely.
    pub fn write_fingerprints(&self, idx: usize, fingerprints: &[Value]) -> Result<()> {
        let payload = values_to_bytes(fingerprints);
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(FINGERPRINT_MAGIC);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        dj_core::faults::corrupt("store.fpr.write", &mut out)?;
        let path = self.sidecar_path(idx);
        let tmp = path.with_extension("fpr.tmp");
        fs::write(&tmp, out)?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// Read slot `idx`'s fingerprint sidecar. `Ok(None)` when the sidecar
    /// was never written; corruption is a [`DjError::Storage`] error.
    pub fn read_fingerprints(&self, idx: usize) -> Result<Option<Vec<Value>>> {
        let path = self.sidecar_path(idx);
        let mut bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        dj_core::faults::corrupt("store.fpr.read", &mut bytes)?;
        if bytes.len() < HEADER_LEN || &bytes[..4] != FINGERPRINT_MAGIC {
            return Err(DjError::Storage(format!(
                "bad fingerprint sidecar header at {path:?}"
            )));
        }
        let len = le_u64(&bytes[4..12]);
        let checksum = le_u64(&bytes[12..20]);
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != len {
            return Err(DjError::Storage(format!(
                "fingerprint sidecar length mismatch at {path:?}: got {}, expected {len}",
                payload.len()
            )));
        }
        if fnv1a(payload) != checksum {
            return Err(DjError::Storage(format!(
                "fingerprint sidecar checksum mismatch at {path:?}"
            )));
        }
        values_from_bytes(payload).map(Some)
    }

    /// All fingerprints across all slots, flattened in slot order —
    /// `Ok(None)` unless *every* written slot has a sidecar whose length
    /// matches its shard (a partial set cannot seed a barrier).
    pub fn read_all_fingerprints(&self) -> Result<Option<Vec<Value>>> {
        let mut all = Vec::new();
        for i in 0..self.shard_count() {
            let Some(expected) = self.shard_len(i) else {
                return Ok(None);
            };
            match self.read_fingerprints(i)? {
                Some(fp) if fp.len() == expected => all.extend(fp),
                _ => return Ok(None),
            }
        }
        Ok(Some(all))
    }

    /// Load slot `idx` as an undecoded slab: projection, column reads and
    /// splices work on it without materializing samples.
    pub fn read_frame_slab(&self, idx: usize) -> Result<ColumnarSlab> {
        ColumnarSlab::load(self.slot_path(idx))
    }

    /// Read slot `idx` back as a dataset. Non-destructive: spilled shards
    /// can be re-streamed (the dedup barrier reads twice — hash pass, mask
    /// pass).
    pub fn read_shard(&self, idx: usize) -> Result<Dataset> {
        self.read_frame_slab(idx)?.decode()
    }

    /// Sample count of slot `idx`, if it has been written.
    pub fn shard_len(&self, idx: usize) -> Option<usize> {
        dj_core::sync::lock(&self.lens).get(idx).copied().flatten()
    }

    /// Total samples across all written slots.
    pub fn total_samples(&self) -> usize {
        (0..self.shard_count())
            .filter_map(|i| self.shard_len(i))
            .sum()
    }

    /// Copy slot `idx`'s raw frame bytes into `w` without decoding —
    /// spool slot files and multi-frame stream entries share the same
    /// frame format, so a spool can be persisted by pure concatenation.
    pub fn copy_shard_frame_into(&self, idx: usize, w: &mut dyn Write) -> Result<u64> {
        let path = self.slot_path(idx);
        let mut file = fs::File::open(&path).map_err(|e| {
            DjError::Storage(format!("spilled shard {idx} missing at {path:?}: {e}"))
        })?;
        Ok(std::io::copy(&mut file, w)?)
    }

    /// Bytes currently on disk in this spool.
    pub fn disk_usage(&self) -> u64 {
        (0..self.shard_count())
            .filter_map(|i| fs::metadata(self.slot_path(i)).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Materialize the whole spool back into one in-memory dataset,
    /// preserving shard order.
    pub fn materialize(&self) -> Result<Dataset> {
        let mut out = Dataset::new();
        for i in 0..self.shard_count() {
            out.extend(self.read_shard(i)?);
        }
        Ok(out)
    }
}

impl ShardSource for ShardSpool {
    fn shard_count(&self) -> usize {
        self.shard_count()
    }
    fn load_shard(&self, idx: usize) -> Result<Dataset> {
        self.read_shard(idx)
    }
}

impl ShardSink for ShardSpool {
    fn store_shard(&self, idx: usize, shard: Dataset) -> Result<()> {
        self.write_shard(idx, &shard)
    }
}

impl Drop for ShardSpool {
    fn drop(&mut self) {
        // Spill data is transient by definition: leave no temp dirs behind.
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::COLUMNAR_FRAME_MAGIC;
    use crate::serialize::to_bytes;
    use dj_core::Sample;
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dj-shard-stream-{tag}-{}", std::process::id()))
    }

    fn shard(texts: &[&str]) -> Dataset {
        Dataset::from_texts(texts.iter().copied())
    }

    fn rich_shard() -> Dataset {
        let mut ds = Dataset::new();
        let mut s = Sample::from_text("hello\nworld");
        s.set_stat("wc", 2.0);
        s.set_meta("lang", "en");
        ds.push(s);
        ds.push(Sample::from_text("数据处理系统 — out-of-core 実行"));
        ds
    }

    #[test]
    fn frame_roundtrip_all_codecs() {
        for codec in [Codec::None, Codec::Rle, Codec::Djz] {
            for ds in [Dataset::new(), shard(&["a", "b"]), rich_shard()] {
                let frame = encode_columnar_frame(&ds, codec);
                let back = read_shard_frame(&mut frame.as_slice()).unwrap().unwrap();
                assert_eq!(back, ds, "codec {codec:?}");
            }
        }
    }

    #[test]
    fn multi_frame_stream_roundtrips_in_order() {
        let shards = vec![
            shard(&["first", "second"]),
            Dataset::new(), // empty shard mid-stream
            rich_shard(),
            shard(&["Ünïcødé ♥ 中文 🦀", ""]),
        ];
        let mut buf = Vec::new();
        for s in &shards {
            write_shard_frame(&mut buf, s, Codec::Djz).unwrap();
        }
        let mut r = buf.as_slice();
        for expect in &shards {
            assert_eq!(&read_shard_frame(&mut r).unwrap().unwrap(), expect);
        }
        assert!(read_shard_frame(&mut r).unwrap().is_none());
        // And the concatenating reader matches from_shards.
        let merged = read_shard_stream(buf.as_slice()).unwrap();
        assert_eq!(merged, Dataset::from_shards(shards));
    }

    #[test]
    fn large_shard_spans_many_codec_windows() {
        // Serialized payload far beyond the 64 KiB djz window and any
        // internal buffer size.
        let texts: Vec<String> = (0..4000)
            .map(|i| format!("document {i} with enough body text to add up — padding padding"))
            .collect();
        let big = Dataset::from_texts(texts);
        assert!(
            to_bytes(&big).len() > 128 * 1024,
            "payload must span windows"
        );
        for codec in [Codec::None, Codec::Djz] {
            let frame = encode_columnar_frame(&big, codec);
            let back = read_shard_frame(&mut frame.as_slice()).unwrap().unwrap();
            assert_eq!(back, big, "codec {codec:?}");
        }
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let frame = encode_columnar_frame(&rich_shard(), Codec::Djz);
        // Truncation at every prefix length must be a clean Storage error
        // (or clean EOF for the empty prefix), never a panic.
        for cut in [
            0,
            1,
            HEADER_LEN - 1,
            HEADER_LEN,
            HEADER_LEN + 5,
            frame.len() - 1,
        ] {
            let res = read_shard_frame(&mut &frame[..cut]);
            if cut == 0 {
                assert!(matches!(res, Ok(None)), "cut=0 is clean EOF");
            } else {
                let err = res.unwrap_err();
                assert!(matches!(err, DjError::Storage(_)), "cut={cut} gave {err:?}");
            }
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut frame = encode_columnar_frame(&shard(&["corruption target"]), Codec::None);
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        let err = read_shard_frame(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Bad magic likewise.
        let mut bad = encode_columnar_frame(&shard(&["x"]), Codec::None);
        bad[0] = b'X';
        assert!(read_shard_frame(&mut bad.as_slice()).is_err());
    }

    #[test]
    fn implausible_length_rejected_without_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(COLUMNAR_FRAME_MAGIC);
        frame.extend_from_slice(&u64::MAX.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        let err = read_shard_frame(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    #[test]
    fn spool_write_read_and_cleanup_on_drop() {
        let dir = tmpdir("spool");
        let shards = vec![shard(&["a", "b", "c"]), Dataset::new(), rich_shard()];
        {
            let spool = ShardSpool::create(&dir, 3, Codec::Djz).unwrap();
            for (i, s) in shards.iter().enumerate() {
                spool.write_shard(i, s).unwrap();
            }
            assert_eq!(spool.shard_len(0), Some(3));
            assert_eq!(spool.shard_len(1), Some(0));
            assert_eq!(spool.total_samples(), 5);
            assert!(spool.disk_usage() > 0);
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(&spool.read_shard(i).unwrap(), s);
            }
            assert_eq!(spool.materialize().unwrap(), Dataset::from_shards(shards));
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spool must remove its dir on drop");
    }

    #[test]
    fn spool_detects_truncation_and_missing_shards() {
        let dir = tmpdir("spool-corrupt");
        let spool = ShardSpool::create(&dir, 2, Codec::Djz).unwrap();
        spool.write_shard(0, &rich_shard()).unwrap();
        // Truncate the file as a mid-write kill would (without the atomic
        // rename protection).
        let path = dir.join("shard-00000.djs");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = spool.read_shard(0).unwrap_err();
        assert!(matches!(err, DjError::Storage(_)), "{err}");
        // Slot 1 was never written.
        let err = spool.read_shard(1).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn spool_leftover_tmp_file_is_invisible_to_readers() {
        // A kill between `fs::write(tmp)` and `fs::rename` leaves only a
        // `.tmp` file; the slot then correctly reads as missing, and a
        // rewrite replaces it atomically.
        let dir = tmpdir("spool-tmp");
        let spool = ShardSpool::create(&dir, 1, Codec::Djz).unwrap();
        fs::write(
            dir.join("shard-00000.djs.tmp"),
            b"partial frame from a killed run",
        )
        .unwrap();
        assert!(spool.read_shard(0).is_err());
        spool.write_shard(0, &shard(&["recovered"])).unwrap();
        assert_eq!(spool.read_shard(0).unwrap(), shard(&["recovered"]));
    }

    #[test]
    fn spool_grows_past_initial_slots() {
        let dir = tmpdir("spool-grow");
        let spool = ShardSpool::create(&dir, 0, Codec::Djz).unwrap();
        assert_eq!(spool.shard_count(), 0);
        spool.write_shard(0, &shard(&["a"])).unwrap();
        spool.write_shard(2, &rich_shard()).unwrap();
        assert_eq!(spool.shard_count(), 3);
        assert_eq!(spool.shard_len(0), Some(1));
        assert_eq!(spool.shard_len(1), None);
        assert_eq!(spool.shard_len(2), Some(2));
        spool.write_shard(1, &Dataset::new()).unwrap();
        assert_eq!(spool.total_samples(), 3);
    }

    #[test]
    fn fingerprint_sidecars_roundtrip_and_gate_on_completeness() {
        let dir = tmpdir("spool-fpr");
        let spool = ShardSpool::create(&dir, 2, Codec::Djz).unwrap();
        spool.write_shard(0, &shard(&["a", "b"])).unwrap();
        spool.write_shard(1, &shard(&["c"])).unwrap();
        let fp0 = vec![Value::Int(7), Value::Str("h".into())];
        let fp1 = vec![Value::from(vec![Value::Int(1), Value::Int(2)])];
        spool.write_fingerprints(0, &fp0).unwrap();
        // One sidecar missing → no flattened set.
        assert!(spool.read_all_fingerprints().unwrap().is_none());
        spool.write_fingerprints(1, &fp1).unwrap();
        assert_eq!(spool.read_fingerprints(0).unwrap(), Some(fp0.clone()));
        let all = spool.read_all_fingerprints().unwrap().unwrap();
        assert_eq!(all, vec![fp0[0].clone(), fp0[1].clone(), fp1[0].clone()]);
        // Length mismatch with its shard disqualifies the whole set.
        spool.write_fingerprints(1, &[]).unwrap();
        assert!(spool.read_all_fingerprints().unwrap().is_none());
        // Corruption is a Storage error, not a silent miss.
        let path = dir.join("shard-00000.fpr");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(spool.read_fingerprints(0).is_err());
    }

    #[test]
    fn spool_frames_copy_into_streams_and_splice_back() {
        let dir = tmpdir("spool-frames");
        let shards = vec![shard(&["a", "b", "c"]), Dataset::new(), rich_shard()];
        let spool = ShardSpool::create(&dir, 3, Codec::Djz).unwrap();
        for (i, s) in shards.iter().enumerate() {
            spool.write_shard(i, s).unwrap();
        }
        // The slab path sees the same data as a full read.
        let slab = spool.read_frame_slab(2).unwrap();
        assert_eq!(slab.sample_count(), shards[2].len());
        assert!(slab.payload_len() > 0);
        assert_eq!(slab.decode().unwrap(), shards[2]);
        // Raw frame concatenation (the cache save path) is a frame stream.
        let mut buf = Vec::new();
        for i in 0..3 {
            spool.copy_shard_frame_into(i, &mut buf).unwrap();
        }
        assert_eq!(
            read_shard_stream(buf.as_slice()).unwrap(),
            Dataset::from_shards(shards.clone())
        );
        // A stream frame copied back into a slot (the cache rehydrate
        // path) lands like any other write.
        let copied = read_frame_slab(&mut buf.as_slice()).unwrap().unwrap();
        spool
            .write_frame_bytes(1, copied.frame(), copied.sample_count())
            .unwrap();
        assert_eq!(spool.read_shard(1).unwrap(), shards[0]);
        assert_eq!(spool.shard_len(1), Some(3));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Frame encode→decode is the identity for arbitrary (including
        /// unicode-heavy) sample texts under every codec.
        #[test]
        fn prop_frame_roundtrip(
            texts in proptest::collection::vec(".{0,60}", 0..12),
            codec_id in 0u8..3,
        ) {
            let codec = [Codec::None, Codec::Rle, Codec::Djz][codec_id as usize];
            let ds = Dataset::from_texts(texts);
            let frame = encode_columnar_frame(&ds, codec);
            let back = read_shard_frame(&mut frame.as_slice()).unwrap().unwrap();
            prop_assert_eq!(back, ds);
        }

        /// Any single corrupted byte in a frame is detected (magic, length,
        /// checksum or payload — corruption never round-trips silently).
        #[test]
        fn prop_single_byte_corruption_detected(
            flip_pos in 0usize..200,
            flip_bit in 0u8..8,
        ) {
            let ds = shard(&["a stable document body for corruption testing 0123456789"]);
            let mut frame = encode_columnar_frame(&ds, Codec::None);
            let pos = flip_pos % frame.len();
            frame[pos] ^= 1 << flip_bit;
            match read_shard_frame(&mut frame.as_slice()) {
                Ok(Some(back)) => prop_assert!(back != ds, "corruption at {} slipped through", pos),
                Ok(None) => prop_assert!(false, "corrupt frame read as clean EOF"),
                Err(_) => {} // detected — the expected outcome
            }
        }
    }
}

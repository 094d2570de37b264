//! The traced replay: the workload's data driven through each layer's
//! public functions one call at a time, single-threaded, with a span
//! around every call.
//!
//! The replay follows the out-of-core file-to-file path — ingest parse,
//! spill frame encode, spool write/read, frame decode, the recipe's ops
//! in order (sharing each sample's derived-view context between ops, as
//! fused ops do), the dedup barriers (hash, cluster, apply) and sharded
//! egress — and its output must match the workload's reference digest.
//! Layers the workload's own engine path does not use are still run (so
//! every workload reports every layer) but are marked off-path and left
//! out of the self-time sum. Ops of the other recipe, the codec and
//! projected decode run as probes on the same data.

use std::collections::BTreeMap;
use std::path::Path;

use dj_core::{Dataset, DjError, FieldSet, Op, Result, Sample, SampleContext, Value};
use dj_io::{CorpusReader, OutputFormat, ShardedWriter};
use dj_store::{
    compress, decompress, encode_columnar_frame, encode_shard_frame, Codec, ColumnarSlab,
    ShardSpool,
};

use crate::inputs::egress_digest;
use crate::report::Metrics;
use crate::trace::Tracer;

/// Samples per replayed shard (the engine's file-backed default).
const SHARD: usize = 1024;
/// Samples the off-recipe op probes run on.
const PROBE_SAMPLES: usize = 2000;
/// The engine's spill codec.
const CODEC: Codec = Codec::Djz;

pub struct Replay<'a> {
    /// The workload's recipe, in order.
    pub ops: &'a [Op],
    /// Ops of the other recipe, probed on a subsample.
    pub probe_ops: &'a [Op],
    /// JSONL corpus the replay ingests.
    pub corpus: &'a Path,
    pub dir: &'a Path,
    pub np: usize,
    /// Span-name prefixes of the layers on the workload's engine path.
    pub on_path: &'a [&'a str],
}

pub struct ReplayOut {
    pub digest: u64,
    /// Self time of the on-path layers, seconds.
    pub on_path_s: f64,
    /// Self time per layer module, seconds (on- and off-path).
    pub layer_self: BTreeMap<String, f64>,
}

type Row = (Sample, SampleContext);

/// Run the replay, pushing its per-layer metrics onto `m`.
pub fn replay(tr: &mut Tracer, r: &Replay<'_>, m: &mut Metrics) -> Result<ReplayOut> {
    let root = tr.open("replay");
    let mut reader = CorpusReader::from_pattern(&r.corpus.display().to_string())?;
    let mut raw: Vec<Dataset> = Vec::new();
    while let Some(shard) = tr.span("io.ingest.parse", || reader.next_shard(SHARD))? {
        raw.push(shard);
    }
    let ingest_bytes = reader.bytes_read() as f64;

    let spool_dir = r.dir.join("replay-spool");
    let spool = ShardSpool::create(&spool_dir, raw.len(), CODEC)?;
    for (i, shard) in raw.iter().enumerate() {
        let frame = tr.span("store.frame.encode", || encode_shard_frame(shard, CODEC));
        tr.span("store.spool.write", || {
            spool.write_frame_bytes(i, &frame, shard.len())
        })?;
    }
    let mut rows: Vec<Vec<Row>> = Vec::with_capacity(raw.len());
    for i in 0..raw.len() {
        let slab = tr.span("store.spool.read", || spool.read_frame_slab(i))?;
        let shard = tr.span("store.frame.decode", || slab.decode())?;
        rows.push(
            shard
                .into_samples()
                .into_iter()
                .map(|s| (s, SampleContext::new()))
                .collect(),
        );
    }
    drop(spool);
    let _ = std::fs::remove_dir_all(&spool_dir);

    for op in r.ops {
        apply_op(tr, op, &mut rows, r.np, m)?;
    }

    let out_dir = r.dir.join("replay-egress");
    let _ = std::fs::remove_dir_all(&out_dir);
    let writer = ShardedWriter::create(&out_dir, OutputFormat::Jsonl)?;
    for (i, shard) in rows.into_iter().enumerate() {
        let ds = Dataset::from_samples(shard.into_iter().map(|(s, _)| s).collect());
        tr.span("io.egress.write", || writer.store_shard(i, &ds))?;
    }
    let manifest = tr.span("io.egress.seal", || writer.finish())?;
    let (digest, _) = egress_digest(&out_dir)?;
    let _ = std::fs::remove_dir_all(&out_dir);
    tr.close(root);

    let ingest_s = tr.total("io.ingest.parse");
    m.push(
        "io.ingest.parse_mb_s",
        ingest_bytes / 1e6 / ingest_s.max(1e-9),
        "MB/s",
    );
    m.push("io.ingest.bytes", ingest_bytes, "bytes");
    let egress_s = tr.total("io.egress.write") + tr.total("io.egress.seal");
    m.push(
        "io.egress.write_mb_s",
        manifest.total_bytes as f64 / 1e6 / egress_s.max(1e-9),
        "MB/s",
    );
    m.push("io.egress.bytes", manifest.total_bytes as f64, "bytes");
    m.push("store.frame.encode_s", tr.total("store.frame.encode"), "s");
    m.push("store.frame.decode_s", tr.total("store.frame.decode"), "s");
    m.push("store.spool.write_s", tr.total("store.spool.write"), "s");
    m.push("store.spool.read_s", tr.total("store.spool.read"), "s");

    let probe = tr.open("probe");
    store_probes(tr, &raw, r.ops, m)?;
    let sample: Vec<Sample> = raw
        .iter()
        .flat_map(|d| d.iter().cloned())
        .take(PROBE_SAMPLES)
        .collect();
    drop(raw);
    for op in r.probe_ops {
        let mut rows = vec![sample
            .iter()
            .cloned()
            .map(|s| (s, SampleContext::new()))
            .collect()];
        apply_op(tr, op, &mut rows, r.np, m)?;
    }
    tr.close(probe);

    let mut layer_self = BTreeMap::new();
    let mut on_path_s = 0.0;
    for (name, s) in tr.self_by_name(root) {
        if name == "replay" {
            continue;
        }
        if r.on_path.iter().any(|p| name.starts_with(p)) {
            on_path_s += s;
        }
        *layer_self.entry(layer_of(&name)).or_insert(0.0) += s;
    }
    Ok(ReplayOut {
        digest,
        on_path_s,
        layer_self,
    })
}

/// The module a span belongs to: `io.ingest`, `store.frame`, `ops`, `dedup`.
fn layer_of(name: &str) -> String {
    if name.starts_with("ops.") {
        let dedup = [".hash", ".cluster", ".apply"]
            .iter()
            .any(|s| name.ends_with(s));
        return if dedup { "dedup" } else { "ops" }.to_string();
    }
    name.splitn(3, '.').take(2).collect::<Vec<_>>().join(".")
}

/// Apply one op to every shard, recording its spans and metrics.
fn apply_op(
    tr: &mut Tracer,
    op: &Op,
    rows: &mut [Vec<Row>],
    np: usize,
    m: &mut Metrics,
) -> Result<()> {
    let name = op.name();
    let n_in: usize = rows.iter().map(Vec::len).sum();
    let span = format!("ops.{name}");
    let mut failure: Option<DjError> = None;
    match op {
        Op::Mapper(mapper) => {
            for shard in rows.iter_mut() {
                tr.span(&span, || {
                    for (s, ctx) in shard.iter_mut() {
                        match mapper.process(s, ctx) {
                            Ok(true) => ctx.invalidate(),
                            Ok(false) => {}
                            Err(e) => failure = failure.take().or(Some(e)),
                        }
                    }
                });
            }
        }
        Op::Filter(filter) => {
            for shard in rows.iter_mut() {
                tr.span(&span, || {
                    shard.retain_mut(|(s, ctx)| {
                        match filter
                            .compute_stats(s, ctx)
                            .and_then(|()| filter.process(s))
                        {
                            Ok(keep) => keep,
                            Err(e) => {
                                failure = failure.take().or(Some(e));
                                true
                            }
                        }
                    })
                });
            }
        }
        Op::Deduplicator(dedup) => {
            let hashes: Vec<Value> = tr.span(&format!("{span}.hash"), || {
                rows.iter_mut()
                    .flat_map(|shard| shard.iter_mut())
                    .map(|(s, ctx)| dedup.compute_hash(s, ctx))
                    .collect::<Result<_>>()
            })?;
            let mask = tr.span(&format!("{span}.cluster"), || {
                dedup.keep_mask_parallel(n_in, &hashes, np)
            })?;
            tr.span(&format!("{span}.apply"), || {
                let mut it = mask.iter();
                for shard in rows.iter_mut() {
                    shard.retain(|_| *it.next().unwrap_or(&true));
                }
            });
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }
    let n_out: usize = rows.iter().map(Vec::len).sum();
    let keep = n_out as f64 / n_in.max(1) as f64;
    match op {
        Op::Deduplicator(_) => {
            m.push(
                format!("{span}.hash_s"),
                tr.total(&format!("{span}.hash")),
                "s",
            );
            m.push(
                format!("{span}.cluster_s"),
                tr.total(&format!("{span}.cluster")),
                "s",
            );
            m.push(format!("{span}.keep_ratio"), keep, "ratio");
        }
        _ => {
            let ns = tr.total(&span) * 1e9 / n_in.max(1) as f64;
            m.push(format!("{span}.ns_per_sample"), ns, "ns");
            if matches!(op, Op::Filter(_)) {
                m.push(format!("{span}.keep_ratio"), keep, "ratio");
            }
        }
    }
    Ok(())
}

/// Codec throughput and projected columnar decode over the ingested shards.
fn store_probes(tr: &mut Tracer, raw: &[Dataset], ops: &[Op], m: &mut Metrics) -> Result<()> {
    let (mut plain, mut packed) = (0usize, 0usize);
    for shard in raw {
        let bytes = dj_store::to_bytes(shard);
        let frame = tr.span("store.codec.compress", || compress(&bytes, CODEC));
        let back = tr.span("store.codec.decompress", || decompress(&frame))?;
        if back != bytes {
            return Err(DjError::Storage(
                "codec round trip changed the payload".into(),
            ));
        }
        plain += bytes.len();
        packed += frame.len();
    }
    let mb = plain as f64 / 1e6;
    m.push(
        "store.codec.compress_mb_s",
        mb / tr.total("store.codec.compress").max(1e-9),
        "MB/s",
    );
    m.push(
        "store.codec.decompress_mb_s",
        mb / tr.total("store.codec.decompress").max(1e-9),
        "MB/s",
    );
    m.push(
        "store.codec.ratio",
        plain as f64 / packed.max(1) as f64,
        "ratio",
    );

    let footprint = ops.iter().fold(FieldSet::none(), |acc, op| {
        acc.union(op.fields_read()).union(op.fields_written())
    });
    let cols = footprint.top_level_columns();
    let (mut decoded, mut total) = (0u64, 0u64);
    for shard in raw {
        let slab = ColumnarSlab::from_frame_bytes(&encode_columnar_frame(shard, CODEC))?;
        let (_, bytes) = tr.span("store.frame.decode_projected", || {
            slab.decode_projected(cols.as_ref())
        })?;
        decoded += bytes;
        total += slab.total_raw_len();
    }
    m.push(
        "store.frame.decode_projected_s",
        tr.total("store.frame.decode_projected"),
        "s",
    );
    m.push(
        "store.frame.projected_share",
        decoded as f64 / total.max(1) as f64,
        "ratio",
    );
    Ok(())
}

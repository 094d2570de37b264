//! Value (de)serialization: the tagged binary value encoding every frame
//! column and sidecar is built from, plus JSONL for interchange (the
//! exporter/importer the paper's pipelines end with).

use std::borrow::Cow;

use bytes::{BufMut, BytesMut};

use dj_core::{parse_json, Dataset, DjError, Result, Sample, Value};

const FORMAT_VERSION: u8 = 1;

/// The canonical byte image of a dataset (version byte, sample count,
/// tagged values in order): byte-identity comparisons and codec probes use
/// it. Nothing persists it — shards are stored as `DJSC` frames.
pub fn to_bytes(dataset: &Dataset) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(dataset.approx_bytes() / 2 + 64);
    buf.put_u8(FORMAT_VERSION);
    buf.put_u64_le(dataset.len() as u64);
    for s in dataset.iter() {
        write_value(&mut buf, s.value());
    }
    buf.to_vec()
}

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_LIST: u8 = 6;
const TAG_MAP: u8 = 7;

pub(crate) fn write_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(false) => buf.put_u8(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.put_u8(TAG_BOOL_TRUE),
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*i);
        }
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(*f);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::List(items) => {
            buf.put_u8(TAG_LIST);
            buf.put_u32_le(items.len() as u32);
            for item in items {
                write_value(buf, item);
            }
        }
        Value::Map(m) => {
            buf.put_u8(TAG_MAP);
            buf.put_u32_le(m.len() as u32);
            for (k, val) in m {
                buf.put_u32_le(k.len() as u32);
                buf.put_slice(k.as_bytes());
                write_value(buf, val);
            }
        }
    }
}

/// Serialize a flat list of values (e.g. per-sample dedup fingerprints)
/// in the same tagged binary format as datasets.
pub fn values_to_bytes(values: &[Value]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(values.len() * 16 + 16);
    buf.put_u8(FORMAT_VERSION);
    buf.put_u64_le(values.len() as u64);
    for v in values {
        write_value(&mut buf, v);
    }
    buf.to_vec()
}

/// Deserialize a value list written by [`values_to_bytes`].
pub fn values_from_bytes(data: &[u8]) -> Result<Vec<Value>> {
    let mut cur = data;
    if cur.len() < 9 {
        return Err(DjError::Storage("value frame too short".into()));
    }
    let version = take_u8(&mut cur)?;
    if version != FORMAT_VERSION {
        return Err(DjError::Storage(format!(
            "unsupported value format version {version}"
        )));
    }
    let n = take_u64(&mut cur)? as usize;
    let mut out = Vec::with_capacity(n.min(cur.len()));
    for _ in 0..n {
        out.push(read_value_slice(&mut cur)?);
    }
    if !cur.is_empty() {
        return Err(DjError::Storage("trailing bytes after value list".into()));
    }
    Ok(out)
}

/// `u64` from the first 8 little-endian bytes of `b`, zero-padded if
/// shorter — every caller bound-checks first, so the pad never shows.
/// (Replaces the `try_into().expect("8 bytes")` idiom: length mistakes
/// here should decode garbage a checksum catches, not panic a worker.)
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = b.len().min(8);
    buf[..n].copy_from_slice(&b[..n]);
    u64::from_le_bytes(buf)
}

/// `u32` twin of [`le_u64`].
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    let mut buf = [0u8; 4];
    let n = b.len().min(4);
    buf[..n].copy_from_slice(&b[..n]);
    u32::from_le_bytes(buf)
}

/// Consume one serialized value, returning the borrowed string at
/// `segments` (or `""` when the path misses / lands on a non-string).
pub(crate) fn walk_path<'a>(cur: &mut &'a [u8], segments: &[&str]) -> Result<Cow<'a, str>> {
    let tag = take_u8(cur)?;
    if segments.is_empty() {
        if tag == TAG_STR {
            return Ok(Cow::Borrowed(take_str(cur)?));
        }
        skip_value_body(cur, tag)?;
        return Ok(Cow::Borrowed(""));
    }
    if tag != TAG_MAP {
        skip_value_body(cur, tag)?;
        return Ok(Cow::Borrowed(""));
    }
    let n = take_u32(cur)? as usize;
    let mut found = Cow::Borrowed("");
    for _ in 0..n {
        let key = take_str(cur)?;
        if key == segments[0] {
            found = walk_path(cur, &segments[1..])?;
        } else {
            skip_value(cur)?;
        }
    }
    Ok(found)
}

pub(crate) fn skip_value(cur: &mut &[u8]) -> Result<()> {
    let tag = take_u8(cur)?;
    skip_value_body(cur, tag)
}

/// Decode one tagged value from a slice cursor (the owned-`Value` twin of
/// [`skip_value`]).
pub(crate) fn read_value_slice(cur: &mut &[u8]) -> Result<Value> {
    let tag = take_u8(cur)?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(le_u64(take_bytes(cur, 8)?) as i64),
        TAG_FLOAT => Value::Float(f64::from_bits(le_u64(take_bytes(cur, 8)?))),
        TAG_STR => Value::Str(take_str(cur)?.to_string()),
        TAG_LIST => {
            let n = take_u32(cur)? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(read_value_slice(cur)?);
            }
            Value::List(items)
        }
        TAG_MAP => {
            let n = take_u32(cur)? as usize;
            let mut m = std::collections::BTreeMap::new();
            for _ in 0..n {
                let k = take_str(cur)?.to_string();
                let v = read_value_slice(cur)?;
                m.insert(k, v);
            }
            Value::Map(m)
        }
        other => return Err(DjError::Storage(format!("unknown value tag {other}"))),
    })
}

fn skip_value_body(cur: &mut &[u8], tag: u8) -> Result<()> {
    match tag {
        TAG_NULL | TAG_BOOL_FALSE | TAG_BOOL_TRUE => {}
        TAG_INT | TAG_FLOAT => {
            take_bytes(cur, 8)?;
        }
        TAG_STR => {
            let n = take_u32(cur)? as usize;
            take_bytes(cur, n)?;
        }
        TAG_LIST => {
            let n = take_u32(cur)? as usize;
            for _ in 0..n {
                skip_value(cur)?;
            }
        }
        TAG_MAP => {
            let n = take_u32(cur)? as usize;
            for _ in 0..n {
                let k = take_u32(cur)? as usize;
                take_bytes(cur, k)?;
                skip_value(cur)?;
            }
        }
        other => return Err(DjError::Storage(format!("unknown value tag {other}"))),
    }
    Ok(())
}

pub(crate) fn take_bytes<'a>(cur: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if cur.len() < n {
        return Err(DjError::Storage("truncated frame".into()));
    }
    let (head, tail) = cur.split_at(n);
    *cur = tail;
    Ok(head)
}

pub(crate) fn take_u8(cur: &mut &[u8]) -> Result<u8> {
    Ok(take_bytes(cur, 1)?[0])
}

pub(crate) fn take_u32(cur: &mut &[u8]) -> Result<u32> {
    Ok(le_u32(take_bytes(cur, 4)?))
}

pub(crate) fn take_u64(cur: &mut &[u8]) -> Result<u64> {
    Ok(le_u64(take_bytes(cur, 8)?))
}

pub(crate) fn take_str<'a>(cur: &mut &'a [u8]) -> Result<&'a str> {
    let n = take_u32(cur)? as usize;
    std::str::from_utf8(take_bytes(cur, n)?)
        .map_err(|_| DjError::Storage("invalid utf8 in string".into()))
}

/// Export a dataset as JSON-Lines text.
pub fn to_jsonl(dataset: &Dataset) -> String {
    let mut out = String::with_capacity(dataset.approx_bytes());
    write_jsonl_into(dataset, &mut out);
    out
}

/// Append a dataset's JSON-Lines text to `out`, formatting each sample
/// straight into the buffer. Sharded egress writers reuse one buffer across
/// shards, so the hot path allocates nothing per sample (the old path built
/// a fresh escaped `String` per sample via `Value::to_string`).
pub fn write_jsonl_into(dataset: &Dataset, out: &mut String) {
    use std::fmt::Write as _;
    out.reserve(dataset.approx_bytes());
    for s in dataset.iter() {
        // Writing into a String cannot fail.
        let _ = write!(out, "{}", s.value());
        out.push('\n');
    }
}

/// Import a dataset from JSON-Lines text.
pub fn from_jsonl(text: &str) -> Result<Dataset> {
    let mut samples = Vec::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v =
            parse_json(line).map_err(|e| DjError::Parse(format!("jsonl line {}: {e}", no + 1)))?;
        samples.push(Sample::from_value(v)?);
    }
    Ok(Dataset::from_samples(samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rich_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let mut s = Sample::from_text("hello\nworld \"quoted\"");
        s.set_meta("language", "EN");
        s.set_meta("stars", 42i64);
        s.set_meta("tags", Value::from(vec!["a", "b"]));
        s.set_stat("word_count", 2.0);
        ds.push(s);
        ds.push(Sample::from_text("中文文本"));
        ds.push(Sample::new());
        ds
    }

    #[test]
    fn jsonl_roundtrip() {
        let ds = rich_dataset();
        let text = to_jsonl(&ds);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::new();
        assert_eq!(from_jsonl(&to_jsonl(&ds)).unwrap(), ds);
    }

    #[test]
    fn corrupt_jsonl_rejected() {
        assert!(from_jsonl("{\"ok\": 1}\nnot json\n").is_err());
        assert!(from_jsonl("[1, 2, 3]\n").is_err()); // root must be a map
    }

    #[test]
    fn values_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Float(2.5),
            Value::Str("中文 fingerprint".into()),
            Value::from(vec!["a", "b"]),
        ];
        assert_eq!(values_from_bytes(&values_to_bytes(&vals)).unwrap(), vals);
        assert_eq!(
            values_from_bytes(&values_to_bytes(&[])).unwrap(),
            Vec::<Value>::new()
        );
        assert!(values_from_bytes(&[]).is_err());
        let mut bytes = values_to_bytes(&vals);
        bytes.push(0);
        assert!(values_from_bytes(&bytes).is_err());
        // A count claiming far more values than the bytes hold is a clean
        // error, not an allocation sized by the claim.
        let mut huge = values_to_bytes(&[]);
        huge[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(values_from_bytes(&huge).is_err());
    }

    proptest! {
        #[test]
        fn prop_jsonl_roundtrip_no_nan(texts in proptest::collection::vec("[a-zA-Z0-9 \\n\"\\\\]{0,60}", 0..10)) {
            let mut ds = Dataset::new();
            for t in &texts {
                ds.push(Sample::from_text(t.clone()));
            }
            let back = from_jsonl(&to_jsonl(&ds)).unwrap();
            prop_assert_eq!(back, ds);
        }
    }
}

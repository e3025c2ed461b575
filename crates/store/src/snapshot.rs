//! Binary column snapshots.
//!
//! A snapshot is a length-prefixed little-endian dump of a [`Table`]'s
//! columns — payload vectors, dictionary blobs and validity bitmap words
//! written verbatim — so large tables reload without CSV re-parsing (and
//! without the lossy float → decimal → float round-trip). The layout:
//!
//! ```text
//! [ 0.. 8)  magic  b"BLAEUSNP"
//! [ 8..12)  format version (u32, currently 1)
//! [12..16)  reserved (u32, zero)
//! [16..24)  body length in bytes (u64)
//! [24..32)  body checksum (u64, FNV-1a folded over 8-byte words)
//! [32.. )   body:
//!           table name (u64 len + UTF-8 bytes)
//!           nrows (u64), ncols (u64)
//!           per column:
//!             name (u64 len + bytes), dtype (u8), role (u8)
//!             validity bitmap (u64 word count + words verbatim)
//!             payload:
//!               float64      u64 count + f64 bits (8 bytes each)
//!               int64        u64 count + i64 (8 bytes each)
//!               categorical  dict (u64 count + per-entry u64 len + bytes)
//!                            + codes (u64 count + u32 each)
//!               bool         value bitmap (u64 word count + words)
//! ```
//!
//! Every multi-byte integer is little-endian. Readers validate the magic,
//! version, length and checksum before touching the body, so truncated or
//! corrupt files surface as [`StoreError::Snapshot`] instead of panics or
//! garbage tables.

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::error::{Result, StoreError};
use crate::schema::{ColumnRole, Field, Schema};
use crate::table::Table;
use crate::value::DataType;

const MAGIC: &[u8; 8] = b"BLAEUSNP";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 32;

/// FNV-1a folded over little-endian 8-byte words (the short tail is
/// zero-padded). Word-at-a-time keeps validation cheap enough that the
/// snapshot read path stays far under CSV parse cost.
///
/// Public because the server tier's command journal frames its records
/// with the same checksum — one integrity primitive across every durable
/// artifact this workspace writes.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = BASIS ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash ^= word;
        hash = hash.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        hash ^= u64::from_le_bytes(tail);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_bitmap(out: &mut Vec<u8>, bm: &Bitmap) {
    put_u64(out, bm.words().len() as u64);
    for &w in bm.words() {
        put_u64(out, w);
    }
}

fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Float64 => 0,
        DataType::Int64 => 1,
        DataType::Categorical => 2,
        DataType::Bool => 3,
    }
}

fn role_tag(role: ColumnRole) -> u8 {
    match role {
        ColumnRole::Key => 0,
        ColumnRole::Label => 1,
        ColumnRole::Attribute => 2,
    }
}

/// Serializes a table into an in-memory snapshot blob.
pub fn write_snapshot_bytes(table: &Table) -> Vec<u8> {
    let mut body = Vec::new();
    put_str(&mut body, table.name());
    put_u64(&mut body, table.nrows() as u64);
    put_u64(&mut body, table.ncols() as u64);
    for (field, column) in table.schema().fields().iter().zip(table.columns()) {
        put_str(&mut body, &field.name);
        body.push(dtype_tag(field.dtype));
        body.push(role_tag(field.role));
        put_bitmap(&mut body, column.validity());
        match column {
            Column::Float64 { data, .. } => {
                put_u64(&mut body, data.len() as u64);
                for &v in data {
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
            Column::Int64 { data, .. } => {
                put_u64(&mut body, data.len() as u64);
                for &v in data {
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
            Column::Categorical { codes, dict, .. } => {
                put_u64(&mut body, dict.len() as u64);
                for label in dict.iter() {
                    put_str(&mut body, label);
                }
                put_u64(&mut body, codes.len() as u64);
                for &c in codes {
                    body.extend_from_slice(&c.to_le_bytes());
                }
            }
            Column::Bool { data, .. } => put_bitmap(&mut body, data),
        }
    }

    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    put_u64(&mut out, body.len() as u64);
    put_u64(&mut out, checksum64(&body));
    out.extend_from_slice(&body);
    out
}

/// Byte-stream decoder tracking its offset for error reporting.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(StoreError::Snapshot {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return self.err(format!(
                "truncated: need {n} bytes for {what}, {} left",
                self.bytes.len() - self.pos
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a u64 length prefix and checks that `count * elem` more bytes
    /// actually exist, so a crafted prefix cannot trigger a huge allocation.
    fn len_prefix(&mut self, elem: usize, what: &str) -> Result<usize> {
        let count = self.u64(what)? as usize;
        if count
            .checked_mul(elem)
            .is_none_or(|total| self.bytes.len() - self.pos < total)
        {
            return self.err(format!(
                "length prefix for {what} ({count}) exceeds file size"
            ));
        }
        Ok(count)
    }

    fn str(&mut self, what: &str) -> Result<String> {
        let len = self.len_prefix(1, what)?;
        let bytes = self.take(len, what)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => self.err(format!("{what} is not valid UTF-8")),
        }
    }

    fn bitmap(&mut self, nbits: usize, what: &str) -> Result<Bitmap> {
        let nwords = self.len_prefix(8, what)?;
        let mut words = Vec::with_capacity(nwords);
        for chunk in self.take(nwords * 8, what)?.chunks_exact(8) {
            words.push(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        match Bitmap::from_words(words, nbits) {
            Some(bm) => Ok(bm),
            None => self.err(format!(
                "{what}: {nwords} words inconsistent with {nbits} bits (or stray tail bits)"
            )),
        }
    }
}

/// Decodes a snapshot blob back into a [`Table`].
///
/// # Errors
/// Returns [`StoreError::Snapshot`] for any malformed input: wrong magic,
/// unsupported version, truncation, checksum mismatch, or sections that do
/// not reassemble into a consistent table.
pub fn read_snapshot_bytes(bytes: &[u8]) -> Result<Table> {
    let mut cur = Cursor { bytes, pos: 0 };
    let magic = cur.take(8, "magic")?;
    if magic != MAGIC {
        return Err(StoreError::Snapshot {
            offset: 0,
            message: format!("bad magic {magic:02x?}, expected {MAGIC:02x?}"),
        });
    }
    let version = u32::from_le_bytes(cur.take(4, "version")?.try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(StoreError::Snapshot {
            offset: 8,
            message: format!("unsupported snapshot version {version} (supported: {VERSION})"),
        });
    }
    cur.take(4, "reserved")?;
    let body_len = cur.u64("body length")? as usize;
    let stored_sum = cur.u64("checksum")?;
    if bytes.len() - cur.pos != body_len {
        return Err(StoreError::Snapshot {
            offset: 16,
            message: format!(
                "body length {body_len} disagrees with file ({} bytes after header)",
                bytes.len() - cur.pos
            ),
        });
    }
    let actual_sum = checksum64(&bytes[cur.pos..]);
    if actual_sum != stored_sum {
        return Err(StoreError::Snapshot {
            offset: 24,
            message: format!(
                "checksum mismatch: stored {stored_sum:016x}, computed {actual_sum:016x}"
            ),
        });
    }

    let name = cur.str("table name")?;
    let nrows = cur.u64("row count")? as usize;
    let ncols = cur.u64("column count")? as usize;
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for c in 0..ncols {
        let col_name = cur.str("column name")?;
        let dtype = match cur.u8("dtype tag")? {
            0 => DataType::Float64,
            1 => DataType::Int64,
            2 => DataType::Categorical,
            3 => DataType::Bool,
            other => return cur.err(format!("unknown dtype tag {other} in column {c}")),
        };
        let role = match cur.u8("role tag")? {
            0 => ColumnRole::Key,
            1 => ColumnRole::Label,
            2 => ColumnRole::Attribute,
            other => return cur.err(format!("unknown role tag {other} in column {c}")),
        };
        let validity = cur.bitmap(nrows, "validity bitmap")?;
        let column = match dtype {
            DataType::Float64 => {
                let count = cur.len_prefix(8, "float payload")?;
                if count != nrows {
                    return cur.err(format!("float payload has {count} rows, table has {nrows}"));
                }
                let mut data = Vec::with_capacity(count);
                for chunk in cur.take(count * 8, "float payload")?.chunks_exact(8) {
                    data.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
                }
                Column::Float64 { data, validity }
            }
            DataType::Int64 => {
                let count = cur.len_prefix(8, "int payload")?;
                if count != nrows {
                    return cur.err(format!("int payload has {count} rows, table has {nrows}"));
                }
                let mut data = Vec::with_capacity(count);
                for chunk in cur.take(count * 8, "int payload")?.chunks_exact(8) {
                    data.push(i64::from_le_bytes(chunk.try_into().expect("8 bytes")));
                }
                Column::Int64 { data, validity }
            }
            DataType::Categorical => {
                let dict_len = cur.len_prefix(1, "dictionary")?;
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(cur.str("dictionary entry")?);
                }
                let count = cur.len_prefix(4, "code payload")?;
                if count != nrows {
                    return cur.err(format!("code payload has {count} rows, table has {nrows}"));
                }
                let mut codes = Vec::with_capacity(count);
                for chunk in cur.take(count * 4, "code payload")?.chunks_exact(4) {
                    codes.push(u32::from_le_bytes(chunk.try_into().expect("4 bytes")));
                }
                for i in validity.iter_ones() {
                    if codes[i] as usize >= dict.len() {
                        return cur.err(format!(
                            "code {} at row {i} exceeds dictionary of {} entries",
                            codes[i],
                            dict.len()
                        ));
                    }
                }
                Column::Categorical {
                    codes,
                    dict: Arc::new(dict),
                    validity,
                }
            }
            DataType::Bool => {
                let data = cur.bitmap(nrows, "bool payload")?;
                Column::Bool { data, validity }
            }
        };
        fields.push(Field::with_role(col_name, dtype, role));
        columns.push(column);
    }
    if cur.pos != bytes.len() {
        return cur.err(format!(
            "{} trailing bytes after last column",
            bytes.len() - cur.pos
        ));
    }

    let schema = Schema::new(fields)?;
    let table = Table::new(name, schema, columns)?;
    if table.ncols() > 0 && table.nrows() != nrows {
        return Err(StoreError::Snapshot {
            offset: 0,
            message: format!(
                "header row count {nrows} disagrees with columns ({})",
                table.nrows()
            ),
        });
    }
    Ok(table)
}

impl Table {
    /// Writes this table as a binary snapshot file (see the module docs for
    /// the layout).
    ///
    /// # Errors
    /// Propagates I/O errors as [`StoreError::Io`].
    pub fn write_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        std::fs::write(path, write_snapshot_bytes(self))?;
        Ok(())
    }

    /// Loads a table from a binary snapshot file: the file is read into
    /// memory and decoded by [`read_snapshot_bytes`].
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] for filesystem problems and
    /// [`StoreError::Snapshot`] for malformed content.
    pub fn read_snapshot(path: impl AsRef<std::path::Path>) -> Result<Table> {
        read_snapshot_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn mixed_table() -> Table {
        TableBuilder::new("mixed")
            .column(
                "x",
                Column::from_f64s(vec![Some(1.5), None, Some(-0.0), Some(f64::MAX)]),
            )
            .unwrap()
            .column(
                "n",
                Column::from_i64s(vec![Some(-7), Some(0), None, Some(i64::MAX)]),
            )
            .unwrap()
            .column(
                "cat",
                Column::from_strs(vec![Some("a"), Some("b"), Some("a"), None]),
            )
            .unwrap()
            .column(
                "flag",
                Column::from_bools(vec![Some(true), None, Some(false), Some(true)]),
            )
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_table() {
        let t = mixed_table();
        let blob = write_snapshot_bytes(&t);
        let back = read_snapshot_bytes(&blob).expect("valid snapshot");
        assert_eq!(back, t);
        assert_eq!(back.name(), t.name());
        assert_eq!(back.schema(), t.schema());
    }

    #[test]
    fn roundtrip_preserves_roles() {
        let t = Table::new(
            "roles",
            Schema::new(vec![
                Field::with_role("id", DataType::Int64, ColumnRole::Key),
                Field::with_role("label", DataType::Categorical, ColumnRole::Label),
            ])
            .unwrap(),
            vec![
                Column::from_i64s(vec![Some(1), Some(2)]),
                Column::from_strs(vec![Some("x"), Some("y")]),
            ],
        )
        .unwrap();
        let back = read_snapshot_bytes(&write_snapshot_bytes(&t)).expect("valid");
        assert_eq!(back.schema(), t.schema());
    }

    #[test]
    fn roundtrip_empty_and_zero_row_tables() {
        let empty = TableBuilder::new("empty").build().unwrap();
        assert_eq!(
            read_snapshot_bytes(&write_snapshot_bytes(&empty)).unwrap(),
            empty
        );

        let zero_rows = TableBuilder::new("zr")
            .column("x", Column::from_f64s(Vec::<Option<f64>>::new()))
            .unwrap()
            .build()
            .unwrap();
        let back = read_snapshot_bytes(&write_snapshot_bytes(&zero_rows)).unwrap();
        assert_eq!(back, zero_rows);
    }

    #[test]
    fn file_roundtrip() {
        let t = mixed_table();
        let path = std::env::temp_dir().join("blaeu_snapshot_test.snap");
        t.write_snapshot(&path).expect("writable");
        let back = Table::read_snapshot(&path).expect("readable");
        assert_eq!(back, t);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_inputs_are_typed_errors() {
        let t = mixed_table();
        let blob = write_snapshot_bytes(&t);

        // Bad magic.
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_snapshot_bytes(&bad),
            Err(StoreError::Snapshot { .. })
        ));

        // Unsupported version.
        let mut bad = blob.clone();
        bad[8] = 99;
        assert!(matches!(
            read_snapshot_bytes(&bad),
            Err(StoreError::Snapshot { .. })
        ));

        // Truncation at every prefix length must error, never panic.
        for cut in [0, 7, 12, HEADER_LEN - 1, HEADER_LEN, blob.len() - 1] {
            assert!(
                matches!(
                    read_snapshot_bytes(&blob[..cut]),
                    Err(StoreError::Snapshot { .. })
                ),
                "cut={cut}"
            );
        }

        // A flipped body byte fails the checksum.
        let mut bad = blob.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        let err = read_snapshot_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn checksum_is_position_sensitive() {
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
        assert_ne!(checksum64(&[0u8; 8]), checksum64(&[0u8; 16]));
    }
}

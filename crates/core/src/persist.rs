//! Sketch persistence: the encoding of a [`ColumnSketch`] embedded in a
//! repository file.
//!
//! Sketches are the artifact the paper builds *once*, offline; this module
//! makes them durable inside a `joinmi_discovery` repository, using the
//! [`joinmi_store`] framing (checksummed sections, little-endian wire
//! format). An embedded sketch is two sections:
//!
//! ```text
//! META  (tag 0x01): kind (always 1, TUPSK) | side | value dtype
//!                   | config{size, seed} | source_rows
//!                   | source_distinct_keys | row count (<= size)
//! ROWS  (tag 0x02): key digest column (u64 LE × n), then value column
//!                   (tagged values, in the same row order)
//! ```
//!
//! The digest and value columns are stored separately (columnar) so future
//! readers can scan join keys — e.g. to rebuild an inverted index — without
//! touching the values. Decoding is exact: float values round-trip bit for
//! bit, so a query answered from a loaded sketch is bit-identical to one
//! answered from the in-memory original.
//!
//! One function knows that layout: [`SketchView::parse`] checks every field
//! in place and leaves the rows as borrowed bytes — validation at snapshot
//! open, and with [`SketchView::to_sketch`] the decode on first touch.
//!
//! This module also owns the tag codecs for the enums shared across the
//! repository format in `joinmi_discovery` ([`Side`], [`DataType`],
//! [`Value`], [`Aggregation`]) and the one sketch-kind byte a repository
//! holds ([`TUPSK_KIND_TAG`]). Tags are append-only: a tag value, once
//! released, is never reassigned.

use std::io::Write;

use joinmi_store::{Result, SectionBuilder, SliceReader, StoreError, Writer};
use joinmi_table::{Aggregation, DataType, Value};

use crate::config::{Side, SketchConfig};
use crate::row::{ColumnSketch, SketchRow};

/// Section tag of the sketch metadata section.
pub const SECTION_SKETCH_META: u8 = 0x01;
/// Section tag of the sketch row (digest + value columns) section.
pub const SECTION_SKETCH_ROWS: u8 = 0x02;

// ---------------------------------------------------------------------------
// Enum tag codecs (shared with the repository format in joinmi_discovery).
// ---------------------------------------------------------------------------

/// The sketch-kind byte every repository writer stamps: TUPSK, the one kind
/// a repository serves. Tags 2–5 named the four baselines in retired
/// standalone sketch files; they stay reserved.
pub const TUPSK_KIND_TAG: u8 = 1;

/// Reads a sketch-kind byte inside a repository: any value but
/// [`TUPSK_KIND_TAG`] is [`StoreError::Corrupt`].
pub fn read_served_kind(r: &mut SliceReader<'_>, what: &'static str) -> Result<()> {
    let tag = r.read_u8(what)?;
    if tag != TUPSK_KIND_TAG {
        return Err(StoreError::corrupt(format!(
            "{what} tag {tag}: a repository holds TUPSK (1) sketches only"
        )));
    }
    Ok(())
}

/// On-disk tag of a [`Side`].
#[must_use]
pub fn side_tag(side: Side) -> u8 {
    match side {
        Side::Left => 1,
        Side::Right => 2,
    }
}

/// Decodes a [`Side`] tag.
pub fn side_from_tag(tag: u8) -> Result<Side> {
    match tag {
        1 => Ok(Side::Left),
        2 => Ok(Side::Right),
        other => Err(StoreError::corrupt(format!("unknown side tag {other}"))),
    }
}

/// On-disk tag of a [`DataType`].
#[must_use]
pub fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
    }
}

/// Decodes a [`DataType`] tag.
pub fn dtype_from_tag(tag: u8) -> Result<DataType> {
    match tag {
        1 => Ok(DataType::Int),
        2 => Ok(DataType::Float),
        3 => Ok(DataType::Str),
        other => Err(StoreError::corrupt(format!(
            "unknown data type tag {other}"
        ))),
    }
}

/// On-disk tag of an [`Aggregation`].
#[must_use]
pub fn aggregation_tag(agg: Aggregation) -> u8 {
    match agg {
        Aggregation::Avg => 1,
        Aggregation::Sum => 2,
        Aggregation::Count => 3,
        Aggregation::CountDistinct => 4,
        Aggregation::Min => 5,
        Aggregation::Max => 6,
        Aggregation::Mode => 7,
        Aggregation::Median => 8,
        Aggregation::First => 9,
    }
}

/// Decodes an [`Aggregation`] tag.
pub fn aggregation_from_tag(tag: u8) -> Result<Aggregation> {
    match tag {
        1 => Ok(Aggregation::Avg),
        2 => Ok(Aggregation::Sum),
        3 => Ok(Aggregation::Count),
        4 => Ok(Aggregation::CountDistinct),
        5 => Ok(Aggregation::Min),
        6 => Ok(Aggregation::Max),
        7 => Ok(Aggregation::Mode),
        8 => Ok(Aggregation::Median),
        9 => Ok(Aggregation::First),
        other => Err(StoreError::corrupt(format!(
            "unknown aggregation tag {other}"
        ))),
    }
}

/// Writes one tagged [`Value`]. Floats are stored as exact bit patterns.
pub fn write_value<W: Write>(w: &mut Writer<W>, value: &Value) -> Result<()> {
    match value {
        Value::Null => w.write_u8(0),
        Value::Int(v) => {
            w.write_u8(1)?;
            w.write_i64(*v)
        }
        Value::Float(v) => {
            w.write_u8(2)?;
            w.write_f64(*v)
        }
        Value::Str(s) => {
            w.write_u8(3)?;
            w.write_str(s)
        }
    }
}

/// A decoded [`Value`] whose string still borrows the payload it was read
/// from, so walking a value run allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl From<ValueRef<'_>> for Value {
    fn from(value: ValueRef<'_>) -> Self {
        match value {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Float(v) => Value::Float(v),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
        }
    }
}

/// Reads one tagged value written by [`write_value`].
pub(crate) fn read_value<'a>(r: &mut SliceReader<'a>) -> Result<ValueRef<'a>> {
    match r.read_u8("value tag")? {
        0 => Ok(ValueRef::Null),
        1 => Ok(ValueRef::Int(r.read_i64("int value")?)),
        2 => Ok(ValueRef::Float(r.read_f64("float value")?)),
        3 => Ok(ValueRef::Str(r.read_str("string value")?)),
        other => Err(StoreError::corrupt(format!("unknown value tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// ColumnSketch encoding.
// ---------------------------------------------------------------------------

impl ColumnSketch {
    /// Writes the sketch's META and ROWS sections, as embedded in a
    /// repository file. The kind byte is always [`TUPSK_KIND_TAG`].
    pub fn write_embedded<W: Write>(&self, w: &mut Writer<W>) -> Result<()> {
        let mut meta = SectionBuilder::new();
        {
            let m = meta.writer();
            m.write_u8(TUPSK_KIND_TAG)?;
            m.write_u8(side_tag(self.side()))?;
            m.write_u8(dtype_tag(self.value_dtype()))?;
            m.write_len(self.config().size)?;
            m.write_u64(self.config().seed)?;
            m.write_len(self.source_rows())?;
            m.write_len(self.source_distinct_keys())?;
            m.write_len(self.len())?;
        }
        meta.finish(SECTION_SKETCH_META, w)?;

        let mut rows = SectionBuilder::new();
        {
            let p = rows.writer();
            // Columnar: all key digests first, then all values.
            for row in self.rows() {
                p.write_u64(row.key.raw())?;
            }
            for row in self.rows() {
                write_value(p, &row.value)?;
            }
        }
        rows.finish(SECTION_SKETCH_ROWS, w)
    }
}

/// An embedded sketch (META + ROWS sections) validated in place: the
/// metadata is decoded and checked (kind byte, row count within the size),
/// and the row columns are fully checked — row count, value tags, string
/// UTF-8, no trailing bytes — but stay borrowed bytes until
/// [`SketchView::to_sketch`] materializes them.
#[derive(Debug, Clone, Copy)]
pub struct SketchView<'a> {
    side: Side,
    value_dtype: DataType,
    config: SketchConfig,
    source_rows: usize,
    source_distinct_keys: usize,
    /// The key digest column: one `u64` LE per row.
    digests: &'a [u8],
    /// The value column: one tagged value per row, in digest order.
    values: &'a [u8],
}

impl<'a> SketchView<'a> {
    /// Parses the sections written by [`ColumnSketch::write_embedded`] at
    /// the cursor, verifying both section checksums. Every check a decode
    /// needs runs here, so [`Self::to_sketch`] cannot fail.
    pub fn parse(r: &mut SliceReader<'a>) -> Result<Self> {
        let mut m = r.section(SECTION_SKETCH_META)?;
        read_served_kind(&mut m, "sketch kind")?;
        let side = side_from_tag(m.read_u8("sketch side")?)?;
        let value_dtype = dtype_from_tag(m.read_u8("sketch value dtype")?)?;
        let size = m.read_len("sketch config size")?;
        let seed = m.read_u64("sketch config seed")?;
        let source_rows = m.read_len("sketch source rows")?;
        let source_distinct_keys = m.read_len("sketch source distinct keys")?;
        let row_count = m.read_len("sketch row count")?;
        // A TUPSK sketch keeps at most `size` rows; the count is also checked
        // against the bytes actually present below.
        if row_count > size {
            return Err(StoreError::corrupt(format!(
                "sketch holds {row_count} rows, more than its size {size}"
            )));
        }
        m.expect_consumed("sketch META section")?;

        let mut p = r.section(SECTION_SKETCH_ROWS)?;
        let digest_bytes = row_count
            .checked_mul(8)
            .ok_or_else(|| StoreError::corrupt("sketch row count overflows digest column size"))?;
        let digests = p.read_slice(digest_bytes, "sketch key digest column")?;
        let values = p.read_slice(p.remaining(), "sketch value column")?;
        let mut v = SliceReader::new(values);
        for _ in 0..row_count {
            read_value(&mut v)?;
        }
        v.expect_consumed("sketch ROWS section")?;

        Ok(Self {
            side,
            value_dtype,
            config: SketchConfig::new(size, seed),
            source_rows,
            source_distinct_keys,
            digests,
            values,
        })
    }

    /// Which side of the join the sketch was built for.
    #[must_use]
    pub fn side(&self) -> Side {
        self.side
    }

    /// Materializes the owned sketch.
    #[must_use]
    pub fn to_sketch(&self) -> ColumnSketch {
        let mut v = SliceReader::new(self.values);
        let rows = self
            .digests
            .chunks_exact(8)
            .map(|digest| {
                let digest = u64::from_le_bytes(digest.try_into().expect("8-byte chunk"));
                let value = read_value(&mut v).expect("value column checked by SketchView::parse");
                SketchRow::new(joinmi_hash::KeyHash(digest), value.into())
            })
            .collect();
        ColumnSketch::new(
            self.side,
            rows,
            self.value_dtype,
            self.source_rows,
            self.source_distinct_keys,
            self.config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tupsk;
    use joinmi_table::Table;

    fn sample_table() -> Table {
        Table::builder("t")
            .push_str_column("k", vec!["a", "b", "b", "c", "d", "e", "a", "f"])
            .push_float_column("z", vec![1.5, -0.0, 2.0, 3.25, 4.0, 5.5, 1.0, 9.0])
            .build()
            .unwrap()
    }

    /// A TUPSK sketch of either side; the right side aggregates `b`.
    fn sample_sketch(side: Side) -> ColumnSketch {
        let cfg = SketchConfig::new(16, 3);
        match side {
            Side::Left => tupsk::build_left(&sample_table(), "k", "z", &cfg),
            Side::Right => tupsk::build_right(&sample_table(), "k", "z", Aggregation::Avg, &cfg),
        }
        .unwrap()
    }

    #[test]
    fn enum_tags_round_trip() {
        for side in [Side::Left, Side::Right] {
            assert_eq!(side_from_tag(side_tag(side)).unwrap(), side);
        }
        for dtype in [DataType::Int, DataType::Float, DataType::Str] {
            assert_eq!(dtype_from_tag(dtype_tag(dtype)).unwrap(), dtype);
        }
        for agg in Aggregation::ALL {
            assert_eq!(aggregation_from_tag(aggregation_tag(agg)).unwrap(), agg);
        }
        assert!(side_from_tag(9).is_err());
        assert!(dtype_from_tag(77).is_err());
        assert!(aggregation_from_tag(0).is_err());
        // The kind byte: TUPSK only; the retired baseline tags are corrupt.
        for tag in 0..=u8::MAX {
            let result = read_served_kind(&mut SliceReader::new(&[tag]), "kind");
            match tag {
                TUPSK_KIND_TAG => result.unwrap(),
                _ => assert!(matches!(result, Err(StoreError::Corrupt(_))), "{tag}"),
            }
        }
    }

    #[test]
    fn values_round_trip_exactly() {
        let values = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(f64::from_bits(0x7FF8_0000_0000_1234)), // NaN payload
            Value::Float(-0.0),
            Value::Str("söme køy".to_owned()),
            Value::Str(String::new()),
        ];
        let mut w = Writer::new(Vec::new());
        for v in &values {
            write_value(&mut w, v).unwrap();
        }
        let bytes = w.into_inner();
        let mut r = SliceReader::new(&bytes);
        for v in &values {
            let back = Value::from(read_value(&mut r).unwrap());
            match (v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(&back, v),
            }
        }
    }

    fn embedded_bytes(sketch: &ColumnSketch) -> Vec<u8> {
        let mut w = Writer::new(Vec::new());
        sketch.write_embedded(&mut w).unwrap();
        w.into_inner()
    }

    fn parse_embedded(buf: &[u8]) -> Result<ColumnSketch> {
        let mut r = SliceReader::new(buf);
        let view = SketchView::parse(&mut r)?;
        r.expect_consumed("embedded sketch")?;
        Ok(view.to_sketch())
    }

    /// Rewrites the 8-byte META field at `offset` and re-stamps the META
    /// checksum, so the decoder, not the checksum, meets the edit.
    fn with_meta_field(buf: &[u8], offset: usize, value: u64) -> Vec<u8> {
        let mut buf = buf.to_vec();
        let meta_len = u64::from_le_bytes(buf[1..9].try_into().unwrap()) as usize;
        buf[17 + offset..17 + offset + 8].copy_from_slice(&value.to_le_bytes());
        let fixed = joinmi_store::checksum(&buf[17..17 + meta_len]);
        buf[9..17].copy_from_slice(&fixed.to_le_bytes());
        buf
    }

    /// META offsets: kind, side, dtype, then size (3), seed (11), source
    /// rows (19), source distinct keys (27), row count (35).
    const META_SIZE: usize = 3;
    const META_ROW_COUNT: usize = 35;

    #[test]
    fn view_round_trips_both_sides_and_consumes_exactly() {
        for side in [Side::Left, Side::Right] {
            let sketch = sample_sketch(side);
            let bytes = embedded_bytes(&sketch);
            let decoded = parse_embedded(&bytes).unwrap();
            assert_eq!(decoded, sketch, "{side:?}");
            // Exact: re-encoding is byte-identical, so float bits (the -0.0
            // in the sample included) survive the round trip.
            assert_eq!(embedded_bytes(&decoded), bytes, "{side:?}");
        }
    }

    #[test]
    fn checksum_valid_but_malformed_payload_is_corrupt_not_a_panic() {
        // A checksum is integrity, not authenticity: a crafted file can carry
        // a correct checksum over a structurally invalid payload. Overwrite
        // the sketch-kind tag with 99 and re-stamp the section checksum.
        let mut buf = embedded_bytes(&sample_sketch(Side::Right));
        let meta_len = u64::from_le_bytes(buf[1..9].try_into().unwrap()) as usize;
        buf[17] = 99; // first META payload byte = sketch kind tag
        let fixed = joinmi_store::checksum(&buf[17..17 + meta_len]);
        buf[9..17].copy_from_slice(&fixed.to_le_bytes());

        assert!(matches!(parse_embedded(&buf), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_inside_a_section_are_corrupt() {
        // Re-frame the ROWS section with one extra payload byte (checksum
        // valid over the padded payload): two byte streams must never decode
        // to the same sketch.
        let sketch = sample_sketch(Side::Right);
        let buf = embedded_bytes(&sketch);
        let meta_len = u64::from_le_bytes(buf[1..9].try_into().unwrap()) as usize;
        let meta_end = 17 + meta_len;
        let rows_len = u64::from_le_bytes(buf[meta_end + 1..meta_end + 9].try_into().unwrap());
        let rows_payload = &buf[meta_end + 17..meta_end + 17 + rows_len as usize];

        let mut padded_payload = rows_payload.to_vec();
        padded_payload.push(0xAB);
        let mut padded = buf[..meta_end].to_vec();
        let mut w = Writer::new(&mut padded);
        joinmi_store::write_section(&mut w, SECTION_SKETCH_ROWS, &padded_payload).unwrap();

        assert!(matches!(
            parse_embedded(&padded),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_row_count_is_typed() {
        let sketch = sample_sketch(Side::Right);
        let rows = sketch.len() as u64;
        let buf = embedded_bytes(&sketch);
        // Truncated mid-rows-section: typed truncation, never a panic.
        let cut = buf.len() - 5;
        assert!(matches!(
            parse_embedded(&buf[..cut]),
            Err(StoreError::Truncated { .. })
        ));
        // A count past the rows present, within the size: typed.
        assert!(parse_embedded(&with_meta_field(&buf, META_ROW_COUNT, rows + 1)).is_err());
        // More rows than the sketch's size: no writer produces that.
        assert!(matches!(
            parse_embedded(&with_meta_field(&buf, META_SIZE, rows - 1)),
            Err(StoreError::Corrupt(_))
        ));
        // A count that overflows the digest column: typed, not a panic.
        let huge = with_meta_field(
            &with_meta_field(&buf, META_SIZE, u64::MAX),
            META_ROW_COUNT,
            u64::MAX,
        );
        assert!(parse_embedded(&huge).is_err());
    }
}

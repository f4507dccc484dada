//! Zero-copy columnar storage: the primitive every CSR array sits on.
//!
//! A [`Column<T>`] is an immutable typed array with two backings:
//!
//! * **Owned** — a plain heap `Vec<T>`, what [`crate::GraphBuilder`]
//!   produces;
//! * **Mapped** — a typed view into a read-only memory-mapped snapshot
//!   ([`crate::snapshot::Snapshot`]); the column borrows nothing and
//!   copies nothing, it keeps the mapping alive through an `Arc` and
//!   derefs straight into the page cache.
//!
//! Both backings deref to `&[T]`, so every consumer — the four search
//! engines, the shard partitioner, the bench harness — is oblivious to
//! where the bytes live. A [`StrTable`] builds on two columns (an offset
//! array plus a byte arena) to give the same two-backing treatment to
//! string collections, replacing `Vec<String>` without per-string heap
//! allocations in the mapped case.

use crate::mmap::Mmap;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Marker for types that can be reinterpreted to/from raw little-endian
/// bytes inside a snapshot.
///
/// # Safety
///
/// Implementors must be `Copy`, have **no padding bytes**, no pointers,
/// and a stable layout (`#[repr(C)]` / `#[repr(transparent)]` or a
/// primitive), and every bit pattern of the right size must be a valid
/// value (no `bool`, no enums with niches). Snapshot integrity is
/// checksummed separately; this contract is what keeps reinterpreting
/// mapped bytes *memory-safe* even for a corrupted file.
pub unsafe trait Pod: Copy + 'static {}

// SAFETY: a primitive integer — no padding, no pointers, fixed layout,
// every bit pattern a valid value.
unsafe impl Pod for u8 {}
// SAFETY: as `u8`.
unsafe impl Pod for u16 {}
// SAFETY: as `u8`.
unsafe impl Pod for u32 {}
// SAFETY: as `u8`.
unsafe impl Pod for u64 {}
// SAFETY: as `u8`.
unsafe impl Pod for i32 {}
// SAFETY: as `u8`.
unsafe impl Pod for i64 {}
// SAFETY: an IEEE-754 primitive — no padding, no pointers, and every bit
// pattern is a valid float (NaN payloads included).
unsafe impl Pod for f32 {}
// SAFETY: as `f32`.
unsafe impl Pod for f64 {}

/// View a Pod slice as its raw bytes (for writing snapshot sections).
pub fn pod_bytes<T: Pod>(data: &[T]) -> &[u8] {
    // SAFETY: `Pod` guarantees `T` has no padding, so all
    // `size_of_val(data)` bytes behind the pointer are initialized; `u8`
    // has alignment 1, and the returned slice borrows `data`.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// An immutable typed array, heap-owned or snapshot-mapped.
pub struct Column<T: Pod> {
    inner: Inner<T>,
}

enum Inner<T: Pod> {
    Owned(Vec<T>),
    /// `offset`/`len` are in *elements*, pre-validated against the map's
    /// length and `T`'s alignment at construction.
    Mapped {
        map: Arc<Mmap>,
        offset_bytes: usize,
        len: usize,
    },
}

impl<T: Pod> Column<T> {
    /// An empty owned column.
    pub fn new() -> Self {
        Column { inner: Inner::Owned(Vec::new()) }
    }

    /// Wrap an owned vector.
    pub fn from_vec(v: Vec<T>) -> Self {
        Column { inner: Inner::Owned(v) }
    }

    /// A typed view of `len_bytes` bytes at `offset_bytes` inside `map`.
    ///
    /// Fails (rather than panicking or reinterpreting garbage) when the
    /// range leaves the mapping, the byte length is not a multiple of
    /// `size_of::<T>()`, or the offset breaks `T`'s alignment relative
    /// to the page-aligned mapping base.
    pub fn from_mmap(
        map: Arc<Mmap>,
        offset_bytes: usize,
        len_bytes: usize,
    ) -> Result<Self, String> {
        let size = std::mem::size_of::<T>();
        let align = std::mem::align_of::<T>();
        if offset_bytes.checked_add(len_bytes).map_or(true, |end| end > map.len()) {
            return Err(format!(
                "column range {offset_bytes}+{len_bytes} exceeds mapping of {} bytes",
                map.len()
            ));
        }
        if size == 0 || len_bytes % size != 0 {
            return Err(format!("column byte length {len_bytes} is not a multiple of {size}"));
        }
        if offset_bytes % align != 0 {
            return Err(format!("column offset {offset_bytes} breaks alignment {align}"));
        }
        Ok(Column { inner: Inner::Mapped { map, offset_bytes, len: len_bytes / size } })
    }

    /// `true` when the column is a view into a memory-mapped snapshot.
    pub fn is_mapped(&self) -> bool {
        matches!(self.inner, Inner::Mapped { .. })
    }

    /// The elements as a slice, wherever they live.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.inner {
            Inner::Owned(v) => v.as_slice(),
            Inner::Mapped { map, offset_bytes, len } => {
                // SAFETY: `Mapped` fields only ever come from `from_mmap`
                // (`clone` copies them), which checked that
                // `offset_bytes + len * size_of::<T>()` lies inside the
                // map and that `offset_bytes` keeps `T`'s alignment from
                // the page-aligned base; the mapping is immutable and
                // outlives `self` via the `Arc`; `Pod` admits every bit
                // pattern, so even a corrupted file yields valid `T`s.
                unsafe {
                    std::slice::from_raw_parts(map.as_ptr().add(*offset_bytes).cast::<T>(), *len)
                }
            }
        }
    }
}

impl<T: Pod> Default for Column<T> {
    fn default() -> Self {
        Column::new()
    }
}

impl<T: Pod> Deref for Column<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for Column<T> {
    fn from(v: Vec<T>) -> Self {
        Column::from_vec(v)
    }
}

impl<T: Pod> Clone for Column<T> {
    /// Owned columns clone their data; mapped columns clone the `Arc`
    /// (cheap — the mapping is shared, never duplicated).
    fn clone(&self) -> Self {
        match &self.inner {
            Inner::Owned(v) => Column { inner: Inner::Owned(v.clone()) },
            Inner::Mapped { map, offset_bytes, len } => Column {
                inner: Inner::Mapped {
                    map: Arc::clone(map),
                    offset_bytes: *offset_bytes,
                    len: *len,
                },
            },
        }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for Column<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Serialize> Serialize for Column<T> {
    /// Serializes like a plain sequence, so the JSON round-trip of a
    /// mapped graph is indistinguishable from an owned one.
    fn to_value(&self) -> Value {
        Value::Array(self.as_slice().iter().map(Serialize::to_value).collect())
    }
}

impl<T: Pod + Deserialize> Deserialize for Column<T> {
    /// Deserializes to the owned backing.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Column::from_vec(Vec::<T>::from_value(v)?))
    }
}

/// An immutable string collection in arena form: `offsets[i]..offsets[i+1]`
/// delimits string `i` inside one shared UTF-8 byte buffer.
///
/// Replaces `Vec<String>` throughout the graph so that node keys, node
/// texts and label names can live in a memory-mapped snapshot without a
/// single per-string allocation. An empty table has an empty offset
/// column (not one `[0]` entry), so `len()` is well-defined either way.
#[derive(Clone, Debug, Default)]
pub struct StrTable {
    offsets: Column<u64>,
    bytes: Column<u8>,
}

impl StrTable {
    /// Build an owned table from any iterator of strings.
    pub fn from_strings<I, S>(strings: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut offsets: Vec<u64> = vec![0];
        let mut bytes: Vec<u8> = Vec::new();
        for s in strings {
            bytes.extend_from_slice(s.as_ref().as_bytes());
            offsets.push(bytes.len() as u64);
        }
        StrTable { offsets: offsets.into(), bytes: bytes.into() }
    }

    /// Assemble from pre-built columns (the snapshot open path). The
    /// offset column must hold `n + 1` monotone entries covering the byte
    /// column; only the cheap length/emptiness checks run here — a
    /// corrupt interior offset surfaces as a panic on access, never as
    /// unsoundness.
    pub fn from_columns(offsets: Column<u64>, bytes: Column<u8>) -> Result<Self, String> {
        match offsets.last() {
            None => {
                if !bytes.is_empty() {
                    return Err("string table with no offsets but non-empty arena".into());
                }
            }
            Some(&last) => {
                if last as usize != bytes.len() {
                    return Err(format!(
                        "string arena is {} bytes but final offset says {last}",
                        bytes.len()
                    ));
                }
            }
        }
        Ok(StrTable { offsets, bytes })
    }

    /// Number of strings.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when the table holds no strings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the table is a view into a memory-mapped snapshot.
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// String `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`, or — for a corrupted mapped snapshot that
    /// passed header validation — if the stored offsets are inverted or
    /// the bytes are not UTF-8. Corruption is detected, never silently
    /// read out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        std::str::from_utf8(&self.bytes[lo..hi]).expect("string table bytes are UTF-8")
    }

    /// Iterator over all strings in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Index of the first string equal to `needle`, if any (linear scan).
    pub fn position(&self, needle: &str) -> Option<usize> {
        self.iter().position(|s| s == needle)
    }

    /// The offset column (for snapshot writing).
    pub fn offsets(&self) -> &Column<u64> {
        &self.offsets
    }

    /// The byte arena (for snapshot writing).
    pub fn bytes(&self) -> &Column<u8> {
        &self.bytes
    }

    /// Approximate heap/mapped footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>() + self.bytes.len()
    }
}

impl PartialEq for StrTable {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrTable {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        StrTable::from_strings(iter)
    }
}

impl Serialize for StrTable {
    /// Serializes as a sequence of strings (JSON-friendly).
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|s| Value::String(s.to_owned())).collect())
    }
}

impl Deserialize for StrTable {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(StrTable::from_strings(Vec::<String>::from_value(v)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_column_derefs_to_its_vec() {
        let c: Column<u32> = vec![1, 2, 3].into();
        assert_eq!(&c[..], &[1, 2, 3]);
        assert!(!c.is_mapped());
        assert_eq!(c.clone(), c);
    }

    #[test]
    fn pod_bytes_reinterprets_little_endian() {
        let data: Vec<u32> = vec![0x0403_0201];
        assert_eq!(pod_bytes(&data), &[1, 2, 3, 4]);
    }

    #[test]
    fn str_table_round_trips_strings() {
        let t = StrTable::from_strings(["alpha", "", "naïve ✓"]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0), "alpha");
        assert_eq!(t.get(1), "");
        assert_eq!(t.get(2), "naïve ✓");
        assert_eq!(t.position("naïve ✓"), Some(2));
        assert_eq!(t.position("missing"), None);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec!["alpha", "", "naïve ✓"]);
    }

    #[test]
    fn empty_str_table() {
        let t = StrTable::from_strings(Vec::<String>::new());
        assert_eq!(t.len(), 1 - 1);
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        let d = StrTable::default();
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn str_table_from_columns_validates_coverage() {
        let good = StrTable::from_columns(vec![0u64, 2].into(), vec![b'h', b'i'].into());
        assert_eq!(good.unwrap().get(0), "hi");
        let bad = StrTable::from_columns(vec![0u64, 5].into(), vec![b'h', b'i'].into());
        assert!(bad.is_err());
        let bad2 = StrTable::from_columns(Column::new(), vec![b'x'].into());
        assert!(bad2.is_err());
    }

    #[test]
    fn column_serde_round_trips() {
        let c: Column<f32> = vec![1.5f32, -0.25].into();
        let json = serde_json::to_string(&c).unwrap();
        let back: Column<f32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        let t = StrTable::from_strings(["x", "yz"]);
        let json = serde_json::to_string(&t).unwrap();
        let back: StrTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}

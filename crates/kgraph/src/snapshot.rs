//! The `.wsnap` on-disk snapshot container: a memory-mappable, zero-copy
//! serialization of every columnar structure the engine serves from.
//!
//! ## File layout
//!
//! ```text
//! ┌────────────────────────────────────────────────────────┐ offset 0
//! │ header page (4096 bytes)                               │
//! │   0..8    magic  b"WSNAPKG1"                           │
//! │   8..12   format version  u32 = 1                      │
//! │   12..16  endian marker   u32 = 0x1A2B3C4D             │
//! │   16..24  file length     u64                          │
//! │   24..32  section count   u64                          │
//! │   32..40  header checksum u64 (FNV-1a, field zeroed)   │
//! │   40..48  reserved                                     │
//! │   48..    section table: count × 32-byte entries       │
//! │           { id u32, reserved u32, offset u64,          │
//! │             byte_len u64, checksum u64 (FNV-1a) }      │
//! ├────────────────────────────────────────────────────────┤ 4096
//! │ section payloads, each starting on a 4096-byte         │
//! │ boundary, zero-padded between sections                 │
//! └────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers and floats are **little-endian native layout** — the open
//! path refuses the file on a big-endian host (the endian marker) instead
//! of byte-swapping, because zero-copy is the whole point. Section
//! payloads are raw [`Pod`] arrays; the 4096-byte alignment guarantees
//! every element type's alignment relative to the page-aligned mapping
//! base, so a [`Column`] can view a section in place.
//!
//! ## Validation model
//!
//! [`Snapshot::open`] validates the **header page only**: magic, version,
//! endianness, file length, header checksum, and that every section lies
//! inside the file on an aligned offset. It deliberately does *not* read
//! section payloads — opening a multi-gigabyte snapshot touches one page,
//! and the OS faults the rest in on demand (this is what makes `serve
//! --mmap` cold starts O(ms)). Per-section FNV-1a checksums are stored for
//! the paranoid path: [`Snapshot::verify_checksums`] reads everything and
//! is used by tests, `build-snapshot` verification and operators.
//!
//! ## Section id registry
//!
//! | range | owner |
//! |---|---|
//! | 0–19 | `kgraph` (graph CSR, normalized weights, string tables) |
//! | 20–39 | `textindex` (inverted-index terms + posting lists) |
//! | 40–59 | `wikisearch-engine` (engine metadata, e.g. sampled `A`) |
//!
//! A reader requires only the sections it reads and ignores the rest, so
//! a file that still carries a retired section opens unchanged. Retired
//! ids are never reused: 0, 3, 4 and 5 (the edge count, both degree
//! columns and the raw Eq. 2 weights, all derivable from the CSR) and
//! `textindex`'s 24 (its node count).

use crate::column::{pod_bytes, Column, Pod, StrTable};
use crate::error::KgraphError;
use crate::graph::KnowledgeGraph;
use crate::mmap::Mmap;
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes opening every `.wsnap` file.
pub const MAGIC: &[u8; 8] = b"WSNAPKG1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Endianness marker as written by a little-endian host.
const ENDIAN_MARKER: u32 = 0x1A2B_3C4D;
/// Header page size; also the alignment of every section payload.
pub const ALIGN: usize = 4096;
/// Bytes 48.. of the header hold the section table.
const TABLE_OFFSET: usize = 48;
/// One section-table entry.
const ENTRY_SIZE: usize = 32;
/// Hard cap on sections (the table must fit the header page).
pub const MAX_SECTIONS: usize = (ALIGN - TABLE_OFFSET) / ENTRY_SIZE;

// ---- kgraph-owned section ids (0–19; 0, 3, 4 and 5 retired) ----

/// CSR offsets, `n + 1` × u64.
pub const SEC_OFFSETS: u32 = 1;
/// CSR adjacency entries, 8 bytes each.
pub const SEC_ADJ: u32 = 2;
/// Min–max normalized weights, f32.
pub const SEC_WEIGHTS: u32 = 6;
/// Node-key string-table offsets, `n + 1` × u64.
pub const SEC_NODE_KEY_OFFSETS: u32 = 7;
/// Node-key string-table UTF-8 arena.
pub const SEC_NODE_KEY_BYTES: u32 = 8;
/// Node-text string-table offsets.
pub const SEC_NODE_TEXT_OFFSETS: u32 = 9;
/// Node-text string-table UTF-8 arena.
pub const SEC_NODE_TEXT_BYTES: u32 = 10;
/// Label-name string-table offsets.
pub const SEC_LABEL_OFFSETS: u32 = 11;
/// Label-name string-table UTF-8 arena.
pub const SEC_LABEL_BYTES: u32 = 12;

/// FNV-1a 64-bit hash — the snapshot's checksum function. Dependency-free
/// and byte-order independent; integrity, not cryptography.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn snap_err(message: impl Into<String>) -> KgraphError {
    KgraphError::Snapshot { message: message.into() }
}

#[derive(Clone, Copy, Debug)]
struct SectionEntry {
    id: u32,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// Streaming writer producing a `.wsnap` file.
///
/// Sections are appended in call order, each aligned to [`ALIGN`] and
/// checksummed as written; [`SnapshotWriter::finish`] seals the file by
/// writing the header page (with its own checksum) in place.
pub struct SnapshotWriter {
    file: File,
    pos: u64,
    sections: Vec<SectionEntry>,
}

impl SnapshotWriter {
    /// Create (truncate) `path` and reserve the header page.
    pub fn create(path: &Path) -> io::Result<SnapshotWriter> {
        let mut file = File::create(path)?;
        file.write_all(&[0u8; ALIGN])?;
        Ok(SnapshotWriter { file, pos: ALIGN as u64, sections: Vec::new() })
    }

    /// Append one section of raw bytes under `id`.
    pub fn section_bytes(&mut self, id: u32, bytes: &[u8]) -> io::Result<()> {
        if self.sections.len() >= MAX_SECTIONS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("snapshot section table is full ({MAX_SECTIONS} sections)"),
            ));
        }
        if self.sections.iter().any(|s| s.id == id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("duplicate snapshot section id {id}"),
            ));
        }
        // Pad to the section alignment boundary.
        let aligned = self.pos.next_multiple_of(ALIGN as u64);
        let pad = (aligned - self.pos) as usize;
        if pad > 0 {
            self.file.write_all(&vec![0u8; pad])?;
        }
        self.file.write_all(bytes)?;
        self.sections.push(SectionEntry {
            id,
            offset: aligned,
            len: bytes.len() as u64,
            checksum: fnv1a(bytes),
        });
        self.pos = aligned + bytes.len() as u64;
        Ok(())
    }

    /// Append one section holding a typed [`Pod`] array.
    pub fn section_pod<T: Pod>(&mut self, id: u32, data: &[T]) -> io::Result<()> {
        self.section_bytes(id, pod_bytes(data))
    }

    /// Append the two sections of a string table.
    pub fn section_str_table(
        &mut self,
        offsets_id: u32,
        bytes_id: u32,
        table: &StrTable,
    ) -> io::Result<()> {
        self.section_pod(offsets_id, table.offsets())?;
        self.section_pod(bytes_id, table.bytes())
    }

    /// Seal the file: pad the tail to a page boundary and write the
    /// header page with the section table and checksums.
    pub fn finish(mut self) -> io::Result<()> {
        let file_len = self.pos.next_multiple_of(ALIGN as u64);
        let tail_pad = (file_len - self.pos) as usize;
        if tail_pad > 0 {
            self.file.write_all(&vec![0u8; tail_pad])?;
        }
        let mut header = vec![0u8; ALIGN];
        header[0..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&ENDIAN_MARKER.to_le_bytes());
        header[16..24].copy_from_slice(&file_len.to_le_bytes());
        header[24..32].copy_from_slice(&(self.sections.len() as u64).to_le_bytes());
        // [32..40] checksum written last, [40..48] reserved.
        for (i, s) in self.sections.iter().enumerate() {
            let at = TABLE_OFFSET + i * ENTRY_SIZE;
            header[at..at + 4].copy_from_slice(&s.id.to_le_bytes());
            header[at + 8..at + 16].copy_from_slice(&s.offset.to_le_bytes());
            header[at + 16..at + 24].copy_from_slice(&s.len.to_le_bytes());
            header[at + 24..at + 32].copy_from_slice(&s.checksum.to_le_bytes());
        }
        let crc = fnv1a(&header);
        header[32..40].copy_from_slice(&crc.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.sync_all()
    }
}

/// An opened, header-validated, memory-mapped `.wsnap` file.
///
/// Opening touches only the header page; section payloads are faulted in
/// by the OS on first access. Clone the inner [`Arc`] via
/// [`Snapshot::map`] to build zero-copy [`Column`]s.
#[derive(Debug)]
pub struct Snapshot {
    map: Arc<Mmap>,
    sections: Vec<SectionEntry>,
}

impl Snapshot {
    /// Open and header-validate `path`. See the module docs for exactly
    /// what is (and is not) checked here.
    pub fn open(path: &Path) -> Result<Snapshot, KgraphError> {
        let file = File::open(path)?;
        let map = Mmap::map_readonly(&file)?;
        Self::from_mmap(Arc::new(map))
    }

    /// Validate an already-created mapping (tests corrupt bytes in
    /// memory through this path).
    pub fn from_mmap(map: Arc<Mmap>) -> Result<Snapshot, KgraphError> {
        if ENDIAN_MARKER.to_le_bytes() != ENDIAN_MARKER.to_ne_bytes() {
            return Err(snap_err("snapshots require a little-endian host"));
        }
        let bytes = map.as_slice();
        if bytes.len() < ALIGN {
            return Err(snap_err(format!(
                "file is {} bytes, smaller than the {ALIGN}-byte header",
                bytes.len()
            )));
        }
        if &bytes[0..8] != MAGIC {
            return Err(snap_err("bad magic (not a .wsnap snapshot)"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(snap_err(format!(
                "unsupported snapshot version {version} (this build reads version {VERSION})"
            )));
        }
        let endian = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if endian != ENDIAN_MARKER {
            return Err(snap_err("endianness marker mismatch"));
        }
        let file_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        if file_len != bytes.len() as u64 {
            return Err(snap_err(format!(
                "header says {file_len} bytes but the file holds {} (truncated?)",
                bytes.len()
            )));
        }
        let count = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        if count > MAX_SECTIONS {
            return Err(snap_err(format!("section count {count} exceeds {MAX_SECTIONS}")));
        }
        let stored_crc = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
        let mut header = bytes[..ALIGN].to_vec();
        header[32..40].fill(0);
        let actual_crc = fnv1a(&header);
        if stored_crc != actual_crc {
            return Err(snap_err(format!(
                "header checksum mismatch (stored {stored_crc:#018x}, computed {actual_crc:#018x})"
            )));
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let at = TABLE_OFFSET + i * ENTRY_SIZE;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
            let checksum = u64::from_le_bytes(bytes[at + 24..at + 32].try_into().unwrap());
            if offset % ALIGN as u64 != 0 {
                return Err(snap_err(format!("section {id} offset {offset} is unaligned")));
            }
            if offset.checked_add(len).map_or(true, |end| end > file_len) {
                return Err(snap_err(format!(
                    "section {id} range {offset}+{len} exceeds file length {file_len}"
                )));
            }
            if sections.iter().any(|s: &SectionEntry| s.id == id) {
                return Err(snap_err(format!("duplicate section id {id}")));
            }
            sections.push(SectionEntry { id, offset, len, checksum });
        }
        Ok(Snapshot { map, sections })
    }

    /// The underlying mapping (shared with every column built from it).
    pub fn map(&self) -> &Arc<Mmap> {
        &self.map
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> usize {
        self.map.len()
    }

    /// Ids of all sections present, in file order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.sections.iter().map(|s| s.id).collect()
    }

    fn entry(&self, id: u32) -> Result<&SectionEntry, KgraphError> {
        self.sections.iter().find(|s| s.id == id).ok_or_else(|| {
            snap_err(format!(
                "missing section {id} (`wikisearch build-snapshot` writes every section)"
            ))
        })
    }

    /// Raw bytes of section `id`.
    pub fn section(&self, id: u32) -> Result<&[u8], KgraphError> {
        let e = self.entry(id)?;
        Ok(&self.map.as_slice()[e.offset as usize..(e.offset + e.len) as usize])
    }

    /// Section `id` as a zero-copy typed column.
    pub fn column<T: Pod>(&self, id: u32) -> Result<Column<T>, KgraphError> {
        let e = self.entry(id)?;
        Column::from_mmap(Arc::clone(&self.map), e.offset as usize, e.len as usize)
            .map_err(|m| snap_err(format!("section {id}: {m}")))
    }

    /// Two sections as a zero-copy string table.
    pub fn str_table(&self, offsets_id: u32, bytes_id: u32) -> Result<StrTable, KgraphError> {
        StrTable::from_columns(self.column(offsets_id)?, self.column(bytes_id)?)
            .map_err(|m| snap_err(format!("sections {offsets_id}/{bytes_id}: {m}")))
    }

    /// Deep integrity check: recompute every section's FNV-1a checksum.
    /// Reads the whole file — this is the *opposite* of the lazy open
    /// path; call it from tests, verification tooling, or operators who
    /// suspect bit rot.
    pub fn verify_checksums(&self) -> Result<(), KgraphError> {
        for e in &self.sections {
            let bytes = &self.map.as_slice()[e.offset as usize..(e.offset + e.len) as usize];
            let actual = fnv1a(bytes);
            if actual != e.checksum {
                return Err(snap_err(format!(
                    "section {} checksum mismatch (stored {:#018x}, computed {actual:#018x})",
                    e.id, e.checksum
                )));
            }
        }
        Ok(())
    }
}

/// Write all of `g`'s sections into `w` (ids 1, 2 and 6–12). The engine
/// layers its own sections (inverted index, metadata) on top in the same
/// file.
pub fn write_graph_sections(w: &mut SnapshotWriter, g: &KnowledgeGraph) -> io::Result<()> {
    w.section_pod(SEC_OFFSETS, g.csr_offsets())?;
    w.section_pod(SEC_ADJ, g.csr_adjacency())?;
    w.section_pod(SEC_WEIGHTS, g.weights())?;
    w.section_str_table(SEC_NODE_KEY_OFFSETS, SEC_NODE_KEY_BYTES, g.node_keys_table())?;
    w.section_str_table(SEC_NODE_TEXT_OFFSETS, SEC_NODE_TEXT_BYTES, g.node_texts_table())?;
    w.section_str_table(SEC_LABEL_OFFSETS, SEC_LABEL_BYTES, g.label_names_table())
}

/// Reassemble a zero-copy [`KnowledgeGraph`] over `snap`'s graph
/// sections. Cheap structural checks only (column lengths agree, the
/// final CSR offset covers an even-length adjacency) — no payload is read
/// eagerly beyond the string tables' and the CSR's final offsets.
pub fn graph_from_snapshot(snap: &Snapshot) -> Result<KnowledgeGraph, KgraphError> {
    KnowledgeGraph::from_parts(
        snap.column(SEC_OFFSETS)?,
        snap.column(SEC_ADJ)?,
        snap.str_table(SEC_NODE_KEY_OFFSETS, SEC_NODE_KEY_BYTES)?,
        snap.str_table(SEC_NODE_TEXT_OFFSETS, SEC_NODE_TEXT_BYTES)?,
        snap.str_table(SEC_LABEL_OFFSETS, SEC_LABEL_BYTES)?,
        snap.column(SEC_WEIGHTS)?,
    )
    .map_err(snap_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kgraph-snap-{}-{name}.wsnap", std::process::id()))
    }

    fn sample() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let x = b.add_node("Q1", "XML schema");
        let y = b.add_node("Q2", "RDF");
        let z = b.add_node("Q3", "naïve — unicode ✓");
        b.add_edge(x, y, "related to");
        b.add_edge(y, z, "instance of");
        b.add_edge(z, x, "instance of");
        b.build()
    }

    fn write_sample(path: &std::path::Path) -> KnowledgeGraph {
        let g = sample();
        let mut w = SnapshotWriter::create(path).unwrap();
        write_graph_sections(&mut w, &g).unwrap();
        w.finish().unwrap();
        g
    }

    #[test]
    fn graph_round_trips_through_a_snapshot() {
        let path = tmp("roundtrip");
        let g = write_sample(&path);
        let snap = Snapshot::open(&path).unwrap();
        snap.verify_checksums().unwrap();
        let g2 = graph_from_snapshot(&snap).unwrap();
        assert!(g2.is_memory_mapped());
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_directed_edges(), g.num_directed_edges());
        assert_eq!(g2.num_labels(), g.num_labels());
        for v in g.nodes() {
            assert_eq!(g2.node_key(v), g.node_key(v));
            assert_eq!(g2.node_text(v), g.node_text(v));
            assert_eq!(g2.neighbors(v), g.neighbors(v));
            assert_eq!(g2.weight(v).to_bits(), g.weight(v).to_bits());
        }
        g2.check_invariants().unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sections_are_page_aligned() {
        let path = tmp("aligned");
        write_sample(&path);
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.file_len() % ALIGN, 0);
        for id in snap.section_ids() {
            let bytes = snap.section(id).unwrap();
            let base = snap.map().as_ptr() as usize;
            assert_eq!((bytes.as_ptr() as usize - base) % ALIGN, 0, "section {id}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupted_magic_is_rejected() {
        let path = tmp("magic");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        let err = Snapshot::open(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn wrong_version_is_rejected_with_both_versions_named() {
        let path = tmp("version");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal the header checksum so the *version* check fires, not
        // the checksum check.
        let mut header = bytes[..ALIGN].to_vec();
        header[32..40].fill(0);
        let crc = fnv1a(&header);
        bytes[32..40].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Snapshot::open(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        assert!(err.to_string().contains("version 1"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = tmp("trunc");
        write_sample(&path);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - ALIGN]).unwrap();
        let err = Snapshot::open(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // A file shorter than one header page is rejected up front.
        std::fs::write(&path, &bytes[..100]).unwrap();
        let err = Snapshot::open(&path).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn header_bitflip_fails_the_header_checksum() {
        let path = tmp("hdrflip");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[100] ^= 0xFF; // inside the section table
        std::fs::write(&path, &bytes).unwrap();
        let err = Snapshot::open(&path).unwrap_err();
        assert!(err.to_string().contains("header checksum"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn payload_bitflip_passes_open_but_fails_deep_verify() {
        let path = tmp("payload");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        let last_nonzero = bytes.iter().rposition(|&b| b != 0).unwrap();
        bytes[last_nonzero] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        // Lazy open only validates the header …
        let snap = Snapshot::open(&path).unwrap();
        // … while the deep check catches the flipped payload byte.
        let err = snap.verify_checksums().unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_section_is_reported() {
        let path = tmp("missing");
        let g = sample();
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.section_pod(SEC_OFFSETS, g.csr_offsets()).unwrap();
        w.finish().unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let err = graph_from_snapshot(&snap).unwrap_err();
        assert!(err.to_string().contains("missing section"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn duplicate_section_ids_are_rejected_at_write_time() {
        let path = tmp("dup");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.section_pod(SEC_OFFSETS, &[0u64]).unwrap();
        assert!(w.section_pod(SEC_OFFSETS, &[0u64]).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn odd_adjacency_length_is_refused() {
        // One adjacency entry too many, with the last offset moved to
        // cover it: every length agrees, but a triple has lost its mirror.
        let path = tmp("oddadj");
        let g = sample();
        let mut offsets = g.csr_offsets().to_vec();
        *offsets.last_mut().unwrap() += 1;
        let mut adj = g.csr_adjacency().to_vec();
        adj.push(adj[0]);
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.section_pod(SEC_OFFSETS, &offsets).unwrap();
        w.section_pod(SEC_ADJ, &adj).unwrap();
        w.section_pod(SEC_WEIGHTS, g.weights()).unwrap();
        w.section_str_table(SEC_NODE_KEY_OFFSETS, SEC_NODE_KEY_BYTES, g.node_keys_table())
            .unwrap();
        w.section_str_table(SEC_NODE_TEXT_OFFSETS, SEC_NODE_TEXT_BYTES, g.node_texts_table())
            .unwrap();
        w.section_str_table(SEC_LABEL_OFFSETS, SEC_LABEL_BYTES, g.label_names_table())
            .unwrap();
        w.finish().unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let err = graph_from_snapshot(&snap).unwrap_err().to_string();
        let _ = std::fs::remove_file(path);
        assert!(err.contains("adjacency holds 7 entries, an odd count"), "{err}");
    }

    #[test]
    fn empty_graph_round_trips() {
        let path = tmp("emptyg");
        let g = GraphBuilder::new().build();
        let mut w = SnapshotWriter::create(&path).unwrap();
        write_graph_sections(&mut w, &g).unwrap();
        w.finish().unwrap();
        let snap = Snapshot::open(&path).unwrap();
        snap.verify_checksums().unwrap();
        let g2 = graph_from_snapshot(&snap).unwrap();
        assert_eq!(g2.num_nodes(), 0);
        assert_eq!(g2.num_directed_edges(), 0);
        g2.check_invariants().unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}

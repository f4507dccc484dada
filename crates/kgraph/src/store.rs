//! The unified graph loader: one entry point for every on-disk format,
//! returning a [`GraphStore`] that holds the loaded graph.
//!
//! [`load_graph`] is the single entry point; the CLI, the serve loop and
//! the bench harness all go through it. A graph enters in one of two
//! ways: `.tsv`, `.nt` and `.bin` are parsed through the builder, which
//! derives the CSR and the normalized Eq. 2 weights from the edge list; a
//! `.wsnap` compiled by `wikisearch build-snapshot` is memory-mapped and
//! validated lazily ([`crate::snapshot`]), its columns viewed in place.
//! [`save_graph`] writes `.tsv` and `.bin` only: a `.wsnap` also carries
//! the text index and engine metadata, so only the engine's
//! `compile_snapshot` writes one.

use crate::error::KgraphError;
use crate::graph::KnowledgeGraph;
use crate::snapshot::{graph_from_snapshot, Snapshot};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

/// On-disk graph formats understood by [`load_graph`], detected from the
/// file extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GraphFormat {
    /// Line-oriented TSV triples (`.tsv`, `.txt`) — see [`crate::io`].
    Tsv,
    /// RDF N-Triples (`.nt`), read-only.
    NTriples,
    /// Compact length-prefixed binary (`.bin`) — see [`crate::binio`].
    Binary,
    /// Memory-mapped zero-copy snapshot (`.wsnap`) — see
    /// [`crate::snapshot`]; read-only here.
    Snapshot,
}

/// The extensions [`load_graph`] reads.
const LOADS: &str = ".tsv, .txt, .nt, .bin or .wsnap";
/// The extensions [`save_graph`] writes.
const SAVES: &str = ".tsv, .txt or .bin";

impl GraphFormat {
    /// Detect the format of `path` from its extension; an unknown one is
    /// refused naming the `supported` extensions instead.
    fn from_path(path: &Path, supported: &str) -> Result<GraphFormat, KgraphError> {
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        match ext {
            "tsv" | "txt" => Ok(GraphFormat::Tsv),
            "nt" => Ok(GraphFormat::NTriples),
            "bin" => Ok(GraphFormat::Binary),
            "wsnap" => Ok(GraphFormat::Snapshot),
            other => Err(KgraphError::Unsupported {
                message: format!("unsupported extension {other:?} (use {supported})"),
            }),
        }
    }
}

/// A loaded graph. For a `.wsnap` the graph's columns keep the mapping
/// alive on their own.
#[derive(Debug)]
pub struct GraphStore {
    graph: KnowledgeGraph,
}

impl GraphStore {
    /// The loaded graph.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// Consume the store, keeping only the graph.
    pub fn into_graph(self) -> KnowledgeGraph {
        self.graph
    }
}

/// Load a graph from `path`, dispatching on extension. The single load
/// entry point for CLIs, servers and benches.
///
/// `.bin`, `.tsv` and `.nt` stream through a buffered reader into the
/// builder, so the file's bytes are never held whole; a `.wsnap` is
/// mapped, not read.
pub fn load_graph(path: &Path) -> Result<GraphStore, KgraphError> {
    let graph = match GraphFormat::from_path(path, LOADS)? {
        GraphFormat::Snapshot => graph_from_snapshot(&Snapshot::open(path)?)?,
        GraphFormat::Binary => {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            crate::binio::read_from(BufReader::new(file), len)?
        }
        GraphFormat::Tsv => crate::io::read_tsv(BufReader::new(File::open(path)?))?,
        GraphFormat::NTriples => crate::io::read_ntriples(BufReader::new(File::open(path)?))?,
    };
    Ok(GraphStore { graph })
}

/// Write `graph` to `path` in the format its extension names: `.tsv`
/// (or `.txt`) or `.bin`. `.nt` is read-only, and a `.wsnap` is compiled,
/// index and metadata included, by `wikisearch build-snapshot`.
pub fn save_graph(graph: &KnowledgeGraph, path: &Path) -> Result<(), KgraphError> {
    let format = GraphFormat::from_path(path, SAVES)?;
    if matches!(format, GraphFormat::NTriples | GraphFormat::Snapshot) {
        return Err(KgraphError::Unsupported {
            message: format!(
                ".nt is read-only, and a .wsnap is compiled by `wikisearch build-snapshot` \
                 (use {SAVES})"
            ),
        });
    }
    let mut w = BufWriter::new(File::create(path)?);
    if format == GraphFormat::Binary {
        crate::binio::write_to(graph, &mut w)?;
    } else {
        crate::io::write_tsv(graph, &mut w)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{write_graph_sections, SnapshotWriter};
    use crate::GraphBuilder;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kgraph-store-{}-{name}", std::process::id()))
    }

    fn sample() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let x = b.add_node("Q1", "XML schema");
        let y = b.add_node("Q2", "RDF");
        b.add_edge(x, y, "related to");
        b.build()
    }

    #[test]
    fn format_detection_by_extension() {
        assert_eq!(GraphFormat::from_path(Path::new("g.tsv"), LOADS).unwrap(), GraphFormat::Tsv);
        assert_eq!(GraphFormat::from_path(Path::new("g.txt"), LOADS).unwrap(), GraphFormat::Tsv);
        assert_eq!(
            GraphFormat::from_path(Path::new("g.nt"), LOADS).unwrap(),
            GraphFormat::NTriples
        );
        assert_eq!(GraphFormat::from_path(Path::new("g.bin"), LOADS).unwrap(), GraphFormat::Binary);
        assert_eq!(
            GraphFormat::from_path(Path::new("g.wsnap"), LOADS).unwrap(),
            GraphFormat::Snapshot
        );
        assert!(GraphFormat::from_path(Path::new("g.json"), LOADS).is_err());
        assert!(GraphFormat::from_path(Path::new("g.parquet"), LOADS).is_err());
    }

    #[test]
    fn every_writable_format_round_trips() {
        let g = sample();
        for ext in ["tsv", "bin"] {
            let path = tmp(&format!("rt.{ext}"));
            save_graph(&g, &path).unwrap();
            let store = load_graph(&path).unwrap();
            assert_eq!(store.graph().num_nodes(), g.num_nodes(), "{ext}");
            assert_eq!(store.graph().num_directed_edges(), g.num_directed_edges(), "{ext}");
            assert!(!store.graph().is_memory_mapped(), "{ext}");
            store.graph().check_invariants().unwrap();
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn snapshot_store_exposes_the_open_handle() {
        let path = tmp("handle.wsnap");
        let mut w = SnapshotWriter::create(&path).unwrap();
        write_graph_sections(&mut w, &sample()).unwrap();
        w.finish().unwrap();
        let store = load_graph(&path).unwrap();
        assert!(store.graph().is_memory_mapped());
        // `load_graph` dropped its `Snapshot` handle and the file goes
        // too: the graph's columns hold the `Arc` that keeps the map.
        std::fs::remove_file(&path).unwrap();
        let g = store.into_graph();
        assert_eq!(g.node_key(crate::NodeId(0)), "Q1");
        assert_eq!(g.node_text(crate::NodeId(1)), "RDF");
    }

    #[test]
    fn ntriples_writes_are_refused() {
        let err = save_graph(&sample(), Path::new("/tmp/x.nt")).unwrap_err();
        assert!(err.to_string().contains("read-only"));
    }

    #[test]
    fn snapshot_writes_are_refused_naming_build_snapshot() {
        let path = tmp("refused.wsnap");
        let err = save_graph(&sample(), &path).unwrap_err();
        assert!(err.to_string().contains("build-snapshot"), "{err}");
        assert!(!path.exists(), "nothing written");
    }

    #[test]
    fn absurd_header_counts_are_refused_before_allocating() {
        // 2^40 nodes once aborted on a 72 TB allocation; 2^61 edges
        // overflowed the edge vector's capacity.
        for (n, m, labels) in [(1u64 << 40, 0u64, 0u64), (0, 1 << 61, 0), (0, 0, 1 << 62)] {
            let mut bytes = b"KGR1".to_vec();
            for count in [n, m, labels] {
                bytes.extend_from_slice(&count.to_le_bytes());
            }
            let path = tmp(&format!("absurd-{n}-{m}-{labels}.bin"));
            std::fs::write(&path, &bytes).unwrap();
            let err = load_graph(&path).unwrap_err();
            let _ = std::fs::remove_file(path);
            assert!(matches!(err, KgraphError::Parse { .. }), "{err}");
            assert!(err.to_string().contains("truncated"), "{err}");
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(load_graph(Path::new("/does/not/exist.tsv")).is_err());
    }
}

//! The unified graph loader: one entry point for every on-disk format,
//! returning a [`GraphStore`] that says where the bytes live.
//!
//! Before this module existed the repo had three overlapping load paths
//! (`io` for TSV/N-Triples, `binio` for the compact binary format, serde
//! for JSON) and every consumer re-implemented the extension dispatch.
//! [`load_graph`] is now the single entry point; the CLI, the serve loop
//! and the bench harness all go through it. It also owns the zero-copy
//! path: a `.wsnap` file is memory-mapped and validated lazily
//! ([`crate::snapshot`]), every other format is parsed into heap-owned
//! columns through the builder.
//!
//! A [`GraphStore`] wraps the resulting [`KnowledgeGraph`] together with
//! its provenance: the detected [`GraphFormat`] and, for snapshots, the
//! still-open [`Snapshot`] handle so higher layers (the text index, the
//! engine) can read their own sections from the same mapping without
//! reopening the file.

use crate::error::KgraphError;
use crate::graph::KnowledgeGraph;
use crate::snapshot::{graph_from_snapshot, Snapshot};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// On-disk graph formats understood by [`load_graph`], detected from the
/// file extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFormat {
    /// Line-oriented TSV triples (`.tsv`, `.txt`) — see [`crate::io`].
    Tsv,
    /// RDF N-Triples (`.nt`), read-only.
    NTriples,
    /// Compact length-prefixed binary (`.bin`) — see [`crate::binio`].
    Binary,
    /// Serde JSON (`.json`).
    Json,
    /// Memory-mapped zero-copy snapshot (`.wsnap`) — see
    /// [`crate::snapshot`].
    Snapshot,
}

impl GraphFormat {
    /// Detect the format of `path` from its extension.
    pub fn from_path(path: &Path) -> Result<GraphFormat, KgraphError> {
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        match ext {
            "tsv" | "txt" => Ok(GraphFormat::Tsv),
            "nt" => Ok(GraphFormat::NTriples),
            "bin" => Ok(GraphFormat::Binary),
            "json" => Ok(GraphFormat::Json),
            "wsnap" => Ok(GraphFormat::Snapshot),
            other => Err(KgraphError::Parse {
                line: 0,
                message: format!(
                    "unsupported extension {other:?} (use .tsv, .txt, .nt, .bin, .json or .wsnap)"
                ),
            }),
        }
    }

    /// `true` for formats [`save_graph`] can write.
    pub fn is_writable(self) -> bool {
        !matches!(self, GraphFormat::NTriples)
    }
}

/// A loaded graph plus its provenance: which format it came from and,
/// for `.wsnap` files, the open snapshot handle sharing the mapping.
#[derive(Debug)]
pub struct GraphStore {
    graph: KnowledgeGraph,
    format: GraphFormat,
    snapshot: Option<Snapshot>,
}

impl GraphStore {
    /// Wrap an already-built heap graph (tests, programmatic callers).
    pub fn from_graph(graph: KnowledgeGraph) -> GraphStore {
        GraphStore { graph, format: GraphFormat::Binary, snapshot: None }
    }

    /// The loaded graph.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// Consume the store, keeping only the graph. For a snapshot-backed
    /// store the mapping stays alive through the graph's columns even
    /// after the [`Snapshot`] handle is dropped.
    pub fn into_graph(self) -> KnowledgeGraph {
        self.graph
    }

    /// The format the graph was loaded from.
    pub fn format(&self) -> GraphFormat {
        self.format
    }

    /// The open snapshot handle, when the graph is `.wsnap`-backed.
    /// Higher layers use it to read their own sections (the inverted
    /// index, engine metadata) from the same mapping.
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.snapshot.as_ref()
    }

    /// `true` when the graph's columns point into a memory-mapped file
    /// rather than the heap.
    pub fn is_memory_mapped(&self) -> bool {
        self.graph.is_memory_mapped()
    }
}

/// Load a graph from `path`, dispatching on extension. The single load
/// entry point for CLIs, servers and benches.
///
/// `.bin`, `.tsv` and `.nt` stream through a buffered reader into the
/// builder, so the file's bytes are never held whole; JSON is read whole,
/// because the serde shim parses from `&str`.
pub fn load_graph(path: &Path) -> Result<GraphStore, KgraphError> {
    let format = GraphFormat::from_path(path)?;
    if format == GraphFormat::Snapshot {
        let snapshot = Snapshot::open(path)?;
        let graph = graph_from_snapshot(&snapshot)?;
        return Ok(GraphStore { graph, format, snapshot: Some(snapshot) });
    }
    let file = File::open(path)?;
    let graph = match format {
        GraphFormat::Binary => {
            let len = file.metadata()?.len();
            crate::binio::read_from(BufReader::new(file), len)?
        }
        GraphFormat::Tsv => crate::io::read_tsv(BufReader::new(file))?,
        GraphFormat::NTriples => crate::io::read_ntriples(BufReader::new(file))?,
        GraphFormat::Json => {
            serde_json::from_str(&read_text(file)?).map_err(|e| KgraphError::Json(e.to_string()))?
        }
        GraphFormat::Snapshot => unreachable!("handled above"),
    };
    Ok(GraphStore { graph, format, snapshot: None })
}

/// Write `graph` to `path` in the format its extension names. The
/// `.wsnap` writer here emits graph sections only; use the engine's
/// `compile_snapshot` to also embed the text index and metadata.
pub fn save_graph(graph: &KnowledgeGraph, path: &Path) -> Result<(), KgraphError> {
    let format = GraphFormat::from_path(path)?;
    match format {
        GraphFormat::Binary => {
            let mut w = BufWriter::new(File::create(path)?);
            crate::binio::write_to(graph, &mut w)?;
            w.flush()?;
        }
        GraphFormat::Tsv => {
            let mut w = BufWriter::new(File::create(path)?);
            crate::io::write_tsv(graph, &mut w)?;
            w.flush()?;
        }
        GraphFormat::Json => std::fs::write(
            path,
            serde_json::to_string(graph).map_err(|e| KgraphError::Json(e.to_string()))?,
        )?,
        GraphFormat::Snapshot => {
            let mut w = crate::snapshot::SnapshotWriter::create(path)?;
            crate::snapshot::write_graph_sections(&mut w, graph)?;
            w.finish()?;
        }
        GraphFormat::NTriples => {
            return Err(KgraphError::Parse {
                line: 0,
                message: "N-Triples is read-only (write .tsv, .bin, .json or .wsnap)".into(),
            })
        }
    }
    Ok(())
}

/// The whole file as one string: JSON only, because the serde shim
/// parses from `&str`. The line formats stream instead.
fn read_text(mut file: File) -> Result<String, KgraphError> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    String::from_utf8(bytes)
        .map_err(|e| KgraphError::Parse { line: 0, message: format!("invalid UTF-8: {e}") })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(GraphFormat::from_path(Path::new("g.tsv")).unwrap(), GraphFormat::Tsv);
        assert_eq!(GraphFormat::from_path(Path::new("g.txt")).unwrap(), GraphFormat::Tsv);
        assert_eq!(GraphFormat::from_path(Path::new("g.nt")).unwrap(), GraphFormat::NTriples);
        assert_eq!(GraphFormat::from_path(Path::new("g.bin")).unwrap(), GraphFormat::Binary);
        assert_eq!(GraphFormat::from_path(Path::new("g.json")).unwrap(), GraphFormat::Json);
        assert_eq!(GraphFormat::from_path(Path::new("g.wsnap")).unwrap(), GraphFormat::Snapshot);
        assert!(GraphFormat::from_path(Path::new("g.parquet")).is_err());
        assert!(!GraphFormat::from_path(Path::new("g.nt")).unwrap().is_writable());
    }

    #[test]
    fn every_writable_format_round_trips() {
        let g = sample();
        for ext in ["tsv", "bin", "json", "wsnap"] {
            let path = tmp(&format!("rt.{ext}"));
            save_graph(&g, &path).unwrap();
            let store = load_graph(&path).unwrap();
            assert_eq!(store.graph().num_nodes(), g.num_nodes(), "{ext}");
            assert_eq!(store.graph().num_directed_edges(), g.num_directed_edges(), "{ext}");
            assert_eq!(store.is_memory_mapped(), ext == "wsnap", "{ext}");
            assert_eq!(store.snapshot().is_some(), ext == "wsnap", "{ext}");
            store.graph().check_invariants().unwrap();
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn snapshot_store_exposes_the_open_handle() {
        let path = tmp("handle.wsnap");
        save_graph(&sample(), &path).unwrap();
        let store = load_graph(&path).unwrap();
        let snap = store.snapshot().unwrap();
        snap.verify_checksums().unwrap();
        assert!(snap.section_ids().contains(&crate::snapshot::SEC_OFFSETS));
        // The graph outlives the dropped handle: the Arc keeps the map.
        let g = store.into_graph();
        assert_eq!(g.node_key(crate::NodeId(0)), "Q1");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn ntriples_writes_are_refused() {
        let err = save_graph(&sample(), Path::new("/tmp/x.nt")).unwrap_err();
        assert!(err.to_string().contains("read-only"));
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

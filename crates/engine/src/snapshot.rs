//! Engine-level `.wsnap` compilation and zero-copy opening.
//!
//! [`compile_snapshot`] turns any loadable dataset into one self-contained
//! snapshot file holding everything the serving path needs:
//!
//! * the graph's CSR columns and string tables (`kgraph` sections 0–12),
//! * the inverted keyword index (`textindex` sections 20–24), and
//! * engine metadata (section 40): the sampled average distance `A`,
//!   stored as exact `f64` bits.
//!
//! Opening ([`crate::WikiSearch::open_snapshot`]) maps the file read-only,
//! validates the header page, and assembles the engine over zero-copy
//! columns — no deserialization, no index rebuild, no distance
//! re-sampling. The stored `A` is the value the deterministic seeded
//! sampler would compute from the same graph, so a snapshot-opened engine
//! and a heap-built one produce **byte-identical** answers (score bits
//! included); `tests/tests/mmap_equivalence.rs` pins this across all four
//! backends and shard counts.

use central::SearchParams;
use kgraph::snapshot::{write_graph_sections, Snapshot, SnapshotWriter};
use kgraph::{estimate_average_distance, KnowledgeGraph};
use std::path::Path;
use textindex::InvertedIndex;

/// Snapshot section id: engine metadata — the sampled average distance
/// `A` as one `f64`.
pub const SEC_AVG_DISTANCE: u32 = 40;

/// What [`compile_snapshot`] reports back (for CLI output and tests).
#[derive(Clone, Copy, Debug)]
pub struct SnapshotInfo {
    /// Nodes in the compiled graph.
    pub nodes: usize,
    /// Original directed edges.
    pub edges: usize,
    /// Distinct analyzed terms in the embedded inverted index.
    pub terms: usize,
    /// Sampled average distance stored in the engine section.
    pub average_distance: f64,
    /// Total snapshot file size in bytes.
    pub file_bytes: u64,
}

/// The average-distance rule shared by the heap build path and the
/// snapshot compiler: deterministic seeded sampling, with the paper's
/// Wikidata value as the degenerate-graph fallback. Keeping this in one
/// place is what makes heap-built and snapshot-opened engines agree on
/// `A` to the bit.
pub(crate) fn sampled_average_distance(graph: &KnowledgeGraph) -> f64 {
    let est = estimate_average_distance(graph, 200, 32, 0xA11CE);
    if est.reachable_pairs == 0 {
        3.68
    } else {
        est.mean
    }
}

/// Compile `graph` (plus its freshly built inverted index and sampled
/// `A`) into a `.wsnap` file at `path`, then re-open it and deep-verify
/// every section checksum before reporting success.
pub fn compile_snapshot(graph: &KnowledgeGraph, path: &Path) -> Result<SnapshotInfo, String> {
    let index = InvertedIndex::build(graph);
    let a = sampled_average_distance(graph);
    let mut w = SnapshotWriter::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    write_graph_sections(&mut w, graph).map_err(|e| e.to_string())?;
    index.write_snapshot_sections(&mut w).map_err(|e| e.to_string())?;
    w.section_pod(SEC_AVG_DISTANCE, &[a]).map_err(|e| e.to_string())?;
    w.finish().map_err(|e| e.to_string())?;
    // Written snapshots are verified end-to-end before being declared
    // good — a compile is the one moment the whole file is hot anyway.
    let snap = Snapshot::open(path).map_err(|e| e.to_string())?;
    snap.verify_checksums().map_err(|e| e.to_string())?;
    Ok(SnapshotInfo {
        nodes: graph.num_nodes(),
        edges: graph.num_directed_edges(),
        terms: index.num_terms(),
        average_distance: a,
        file_bytes: snap.file_len() as u64,
    })
}

/// Assemble the engine pieces from an opened snapshot: zero-copy graph,
/// zero-copy index, stored `A`. Falls back to building the index / the
/// sampler for graph-only snapshots (e.g. written by
/// `kgraph::store::save_graph`), so every valid `.wsnap` is servable.
pub(crate) fn open_parts(
    path: &Path,
) -> Result<(KnowledgeGraph, InvertedIndex, SearchParams), String> {
    let snap = Snapshot::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let graph = kgraph::snapshot::graph_from_snapshot(&snap)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let index = match InvertedIndex::from_snapshot(&snap) {
        Ok(index) => index,
        Err(kgraph::KgraphError::Snapshot { message }) if message.contains("missing section") => {
            InvertedIndex::build(&graph)
        }
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let a = match snap.column::<f64>(SEC_AVG_DISTANCE) {
        Ok(col) if col.len() == 1 => col[0],
        Ok(col) => {
            return Err(format!(
                "{}: engine meta section holds {} values, expected 1",
                path.display(),
                col.len()
            ))
        }
        Err(kgraph::KgraphError::Snapshot { message }) if message.contains("missing section") => {
            sampled_average_distance(&graph)
        }
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let params = SearchParams::default().with_average_distance(a);
    Ok((graph, index, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, WikiSearch};
    use kgraph::GraphBuilder;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("engine-snap-{}-{name}.wsnap", std::process::id()))
    }

    fn sample() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let x = b.add_node("Q1", "XML");
        let q = b.add_node("Q2", "query language");
        let s = b.add_node("Q3", "SQL");
        let r = b.add_node("Q4", "RDF");
        b.add_edge(x, q, "related to");
        b.add_edge(s, q, "instance of");
        b.add_edge(r, q, "instance of");
        b.build()
    }

    #[test]
    fn compile_then_open_serves_identical_answers() {
        let path = tmp("roundtrip");
        let g = sample();
        let info = compile_snapshot(&g, &path).unwrap();
        assert_eq!(info.nodes, 4);
        assert_eq!(info.edges, 3);
        assert!(info.terms > 0);
        assert!(info.file_bytes > 0);

        let heap = WikiSearch::build_with(g, Backend::Sequential);
        let mapped = WikiSearch::open_snapshot(&path, Backend::Sequential).unwrap();
        assert!(mapped.is_memory_mapped());
        assert!(!heap.is_memory_mapped());
        // `A` is the stored value, equal to the heap sampler's, to the bit.
        assert_eq!(
            mapped.params().average_distance.to_bits(),
            heap.params().average_distance.to_bits()
        );
        for raw in ["xml sql rdf", "xml sql", "rdf", ""] {
            let a = mapped.search(raw);
            let b = heap.search(raw);
            assert_eq!(a.answers.len(), b.answers.len(), "{raw:?}");
            for (x, y) in a.answers.iter().zip(&b.answers) {
                assert_eq!(x.nodes, y.nodes, "{raw:?}");
                assert_eq!(x.edges, y.edges, "{raw:?}");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{raw:?}");
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn graph_only_snapshot_opens_with_fallbacks() {
        let path = tmp("graphonly");
        let g = sample();
        kgraph::store::save_graph(&g, &path).unwrap();
        let ws = WikiSearch::open_snapshot(&path, Backend::Sequential).unwrap();
        assert!(ws.is_memory_mapped(), "the graph still maps");
        assert!(!ws.index().is_memory_mapped(), "the index was rebuilt");
        let heap = WikiSearch::build_with(sample(), Backend::Sequential);
        let a = ws.search("xml sql rdf");
        let b = heap.search("xml sql rdf");
        assert_eq!(a.answers.len(), b.answers.len());
        assert_eq!(a.answers[0].score.to_bits(), b.answers[0].score.to_bits());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn open_rejects_a_missing_file_with_the_path_named() {
        let err = match WikiSearch::open_snapshot(Path::new("/no/such.wsnap"), Backend::Sequential)
        {
            Err(e) => e,
            Ok(_) => panic!("opened a nonexistent snapshot"),
        };
        assert!(err.contains("/no/such.wsnap"), "{err}");
    }
}

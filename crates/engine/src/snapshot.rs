//! Engine-level `.wsnap` compilation and zero-copy opening.
//!
//! [`compile_snapshot`] turns any loadable dataset into one self-contained
//! snapshot file holding everything the serving path needs:
//!
//! * the graph's CSR, normalized weights and string tables (`kgraph`
//!   sections 1, 2 and 6–12),
//! * the inverted keyword index (`textindex` sections 20–23), and
//! * engine metadata (section 40): the sampled average distance `A`,
//!   stored as exact `f64` bits.
//!
//! Opening ([`crate::WikiSearch::open_snapshot`]) maps the file read-only,
//! validates the header page, and assembles the engine over zero-copy
//! columns — no deserialization, no index rebuild, no distance
//! re-sampling. The stored `A` is the value the deterministic seeded
//! sampler would compute from the same graph, so a snapshot-opened engine
//! and a heap-built one produce **byte-identical** answers (score bits
//! included); the mmap points of the `lattice` oracle
//! (`tests/tests/lattice.rs`) pin this across all four backends and
//! shard-worker fleets.

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
/// zero-copy index, stored `A`. A file without every section, such as
/// one holding only the graph's, is refused with the missing section
/// named: only [`compile_snapshot`] writes a `.wsnap`.
pub(crate) fn open_parts(
    path: &Path,
) -> Result<(KnowledgeGraph, InvertedIndex, SearchParams), String> {
    let named = |e: kgraph::KgraphError| format!("{}: {e}", path.display());
    let snap = Snapshot::open(path).map_err(named)?;
    let graph = kgraph::snapshot::graph_from_snapshot(&snap).map_err(named)?;
    let index = InvertedIndex::from_snapshot(&snap).map_err(named)?;
    let a = snap.column::<f64>(SEC_AVG_DISTANCE).map_err(named)?;
    if a.len() != 1 {
        return Err(format!(
            "{}: engine meta section holds {} values, expected 1",
            path.display(),
            a.len()
        ));
    }
    let params = SearchParams::default().with_average_distance(a[0]);
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

    /// Write `g` the way a build that still stored the retired sections
    /// did: all 19 sections in that build's order, the retired ids 0, 3,
    /// 4, 5 and 24 holding arbitrary bytes.
    fn write_with_retired_sections(g: &KnowledgeGraph, path: &Path) {
        use kgraph::snapshot::*;
        let junk = |id: u32| vec![id as u8 ^ 0xA5; 8 + id as usize];
        let mut w = SnapshotWriter::create(path).unwrap();
        w.section_bytes(0, &junk(0)).unwrap();
        w.section_pod(SEC_OFFSETS, g.csr_offsets()).unwrap();
        w.section_pod(SEC_ADJ, g.csr_adjacency()).unwrap();
        for id in [3, 4, 5] {
            w.section_bytes(id, &junk(id)).unwrap();
        }
        w.section_pod(SEC_WEIGHTS, g.weights()).unwrap();
        w.section_str_table(SEC_NODE_KEY_OFFSETS, SEC_NODE_KEY_BYTES, g.node_keys_table())
            .unwrap();
        w.section_str_table(SEC_NODE_TEXT_OFFSETS, SEC_NODE_TEXT_BYTES, g.node_texts_table())
            .unwrap();
        w.section_str_table(SEC_LABEL_OFFSETS, SEC_LABEL_BYTES, g.label_names_table())
            .unwrap();
        InvertedIndex::build(g).write_snapshot_sections(&mut w).unwrap();
        w.section_bytes(24, &junk(24)).unwrap();
        w.section_pod(SEC_AVG_DISTANCE, &[sampled_average_distance(g)]).unwrap();
        w.finish().unwrap();
        assert_eq!(Snapshot::open(path).unwrap().section_ids().len(), 19);
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
        let retired = tmp("retired-sections");
        write_with_retired_sections(&g, &retired);

        let heap = WikiSearch::build_with(g, Backend::Sequential);
        for path in [&path, &retired] {
            let mapped = WikiSearch::open_snapshot(path, Backend::Sequential).unwrap();
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
        }
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(retired);
    }

    #[test]
    fn concurrent_index_and_sampling_match_the_sequential_pieces() {
        let config =
            datagen::SyntheticConfig { num_entities: 2000, ..datagen::SyntheticConfig::tiny(11) };
        let g = config.generate().graph;
        let a = sampled_average_distance(&g);
        let index = InvertedIndex::build(&g);
        let path = tmp("concurrent");
        let info = compile_snapshot(&g, &path).unwrap();
        assert_eq!(info.average_distance.to_bits(), a.to_bits());
        assert_eq!(info.terms, index.num_terms());

        let mapped = WikiSearch::open_snapshot(&path, Backend::Sequential).unwrap();
        assert!(mapped.index().is_memory_mapped());
        let heap = WikiSearch::build_with(g, Backend::Sequential);
        let expected: Vec<_> = index.term_frequencies().collect();
        for ws in [&heap, &mapped] {
            assert_eq!(ws.params().average_distance.to_bits(), a.to_bits());
            assert_eq!(ws.index().term_frequencies().collect::<Vec<_>>(), expected);
            for &(term, _) in &expected {
                assert_eq!(ws.index().lookup_analyzed(term), index.lookup_analyzed(term), "{term}");
            }
        }
        let _ = std::fs::remove_file(path);
    }

    /// FNV-1a 64 of the `.wsnap` file `compile_snapshot` writes for
    /// `config`: the CSR, the Eq. 2 weights, the inverted index and the
    /// bits of the sampled `A`, to the byte.
    fn compiled_digest(config: &datagen::SyntheticConfig, tag: &str) -> u64 {
        let path = tmp(tag);
        compile_snapshot(&config.generate().graph, &path).unwrap();
        let digest = kgraph::snapshot::fnv1a(&std::fs::read(&path).unwrap());
        let _ = std::fs::remove_file(path);
        digest
    }

    #[test]
    fn compiled_bytes_are_pinned() {
        assert_eq!(
            compiled_digest(&datagen::SyntheticConfig::tiny(5), "pin-tiny"),
            0x93ea_abb5_894c_f09e
        );
        // Set explicitly so `WIKISEARCH_SCALE` cannot change it.
        let sim = datagen::SyntheticConfig {
            num_entities: 3000,
            seed: 1,
            ..datagen::SyntheticConfig::wiki2017_sim()
        };
        assert_eq!(compiled_digest(&sim, "pin-sim"), 0xd27c_3f3d_27e9_7931);
    }

    #[test]
    fn graph_only_snapshot_opens_with_fallbacks() {
        // A file with the graph's sections only is refused: the index is
        // not rebuilt and `A` is not resampled behind the caller's back.
        let path = tmp("graphonly");
        let mut w = SnapshotWriter::create(&path).unwrap();
        write_graph_sections(&mut w, &sample()).unwrap();
        w.finish().unwrap();
        let err = match WikiSearch::open_snapshot(&path, Backend::Sequential) {
            Err(e) => e,
            Ok(_) => panic!("opened a graph-only snapshot"),
        };
        let _ = std::fs::remove_file(&path);
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("missing section 20"), "{err}");
        assert!(err.contains("build-snapshot"), "{err}");
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

//! Inverted index: analyzed term → sorted posting list of nodes.
//!
//! This is the `T_i` provider of the paper (Sec. III): for each query
//! keyword `t_i`, the set of nodes containing it. Unlike BLINKS-style
//! approaches the engine needs **no** precomputed keyword–node distance
//! structures — only these posting lists — which is exactly the paper's
//! scalability argument against BLINKS on a 5M-keyword KB.
//!
//! The index is stored in one canonical columnar shape on both backings:
//! a lexicographically sorted term table ([`StrTable`]) plus a CSR of
//! posting lists (`posting_offsets` delimiting one flat [`NodeId`]
//! column). Term lookup is a binary search over the sorted table. The
//! same columns serialize into four `.wsnap` snapshot sections (ids
//! 20–23; 24 is retired) and map back zero-copy, so a heap-built index
//! and a mapped one are structurally identical — the property the mmap
//! points of the differential `lattice` suite lean on.

use crate::analyzer::{analyze_token, analyze_unique};
use crate::tokenizer::raw_tokens;
use kgraph::snapshot::{Snapshot, SnapshotWriter};
use kgraph::{Column, KgraphError, KnowledgeGraph, NodeId, StrTable};
use std::collections::HashMap;

/// Snapshot section: term string-table offsets (`num_terms + 1` × u64).
pub const SEC_TERM_OFFSETS: u32 = 20;
/// Snapshot section: term string-table UTF-8 arena.
pub const SEC_TERM_BYTES: u32 = 21;
/// Snapshot section: posting-list CSR offsets (`num_terms + 1` × u64).
pub const SEC_POSTING_OFFSETS: u32 = 22;
/// Snapshot section: flat posting lists (u32 node ids).
pub const SEC_POSTINGS: u32 = 23;

/// Inverted index over a graph's node texts.
#[derive(Clone, Debug, Default)]
pub struct InvertedIndex {
    /// Distinct analyzed terms, lexicographically sorted.
    terms: StrTable,
    /// CSR offsets: posting list `i` is `postings[offsets[i]..offsets[i+1]]`.
    posting_offsets: Column<u64>,
    /// All posting lists, concatenated in term order; each list is a
    /// sorted, deduplicated run of node ids.
    postings: Column<NodeId>,
}

impl InvertedIndex {
    /// Build the index by analyzing every node's text.
    ///
    /// A token's analysis depends on the token alone, so each distinct raw
    /// token is analyzed once: `memo` maps it to its term id (`None` for a
    /// stopword). Nodes are visited in id order, so a term's postings come
    /// out sorted, and a node already last in a term's list is that
    /// node's repeat of the term.
    pub fn build(g: &KnowledgeGraph) -> Self {
        let mut memo: HashMap<&str, Option<usize>> = HashMap::new();
        let mut ids: HashMap<String, usize> = HashMap::new();
        let mut terms: Vec<String> = Vec::new();
        let mut lists: Vec<Vec<NodeId>> = Vec::new();
        for v in g.nodes() {
            for raw in raw_tokens(g.node_text(v)) {
                let id = *memo.entry(raw).or_insert_with(|| {
                    let term = analyze_token(raw)?;
                    Some(*ids.entry(term).or_insert_with_key(|term| {
                        terms.push(term.clone());
                        lists.push(Vec::new());
                        terms.len() - 1
                    }))
                });
                if let Some(id) = id {
                    if lists[id].last() != Some(&v) {
                        lists[id].push(v);
                    }
                }
            }
        }
        drop((memo, ids));
        let mut order: Vec<usize> = (0..terms.len()).collect();
        order.sort_unstable_by(|&a, &b| terms[a].cmp(&terms[b]));
        let mut posting_offsets: Vec<u64> = Vec::with_capacity(terms.len() + 1);
        posting_offsets.push(0);
        let mut postings: Vec<NodeId> = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        for &id in &order {
            postings.extend_from_slice(&lists[id]);
            posting_offsets.push(postings.len() as u64);
        }
        InvertedIndex {
            terms: StrTable::from_strings(order.iter().map(|&id| &terms[id])),
            posting_offsets: posting_offsets.into(),
            postings: postings.into(),
        }
    }

    /// Number of distinct analyzed terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Binary search for `term` in the sorted term table.
    fn term_index(&self, term: &str) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, self.terms.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.terms.get(mid).cmp(term) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Posting list for a *raw* (unanalyzed) term; the term is pushed
    /// through the same pipeline as node labels. Multi-word input uses the
    /// first analyzed token. Returns `None` for stopword-only input or
    /// terms absent from the corpus.
    pub fn lookup(&self, raw_term: &str) -> Option<&[NodeId]> {
        let analyzed = analyze_unique(raw_term);
        let term = analyzed.first()?;
        self.lookup_analyzed(term)
    }

    /// Posting list for an already-analyzed term.
    pub fn lookup_analyzed(&self, term: &str) -> Option<&[NodeId]> {
        let i = self.term_index(term)?;
        let lo = self.posting_offsets[i] as usize;
        let hi = self.posting_offsets[i + 1] as usize;
        Some(&self.postings[lo..hi])
    }

    /// Document frequency of an analyzed term (0 if absent). This is the
    /// per-keyword `kwf` quantity of the paper's Table V.
    pub fn frequency(&self, term: &str) -> usize {
        self.lookup_analyzed(term).map_or(0, |p| p.len())
    }

    /// Average keyword frequency over a set of analyzed terms — the `kwf`
    /// column of Table V (terms missing from the corpus count as 0).
    pub fn avg_frequency<'a>(&self, terms: impl IntoIterator<Item = &'a str>) -> f64 {
        let mut sum = 0usize;
        let mut n = 0usize;
        for t in terms {
            sum += self.frequency(t);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Iterator over `(term, document frequency)` pairs, in term order.
    pub fn term_frequencies(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        (0..self.terms.len()).map(move |i| {
            let df = (self.posting_offsets[i + 1] - self.posting_offsets[i]) as usize;
            (self.terms.get(i), df)
        })
    }

    /// `true` when the index is served from a memory-mapped snapshot.
    pub fn is_memory_mapped(&self) -> bool {
        self.postings.is_mapped()
    }

    /// Approximate bytes used by the index (postings + term table),
    /// whether heap-resident or mapped.
    pub fn approx_bytes(&self) -> usize {
        self.postings.len() * std::mem::size_of::<NodeId>()
            + self.posting_offsets.len() * std::mem::size_of::<u64>()
            + self.terms.approx_bytes()
    }

    /// Write the index's four sections (ids 20–23) into `w`, alongside
    /// whatever graph sections are already there.
    pub fn write_snapshot_sections(&self, w: &mut SnapshotWriter) -> std::io::Result<()> {
        w.section_str_table(SEC_TERM_OFFSETS, SEC_TERM_BYTES, &self.terms)?;
        w.section_pod(SEC_POSTING_OFFSETS, &self.posting_offsets)?;
        w.section_pod(SEC_POSTINGS, &self.postings)
    }

    /// Reassemble a zero-copy index over `snap`'s sections. Cheap length
    /// cross-checks only, mirroring the graph open path.
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, KgraphError> {
        let snap_err =
            |m: String| KgraphError::Snapshot { message: format!("inverted index: {m}") };
        let terms = snap.str_table(SEC_TERM_OFFSETS, SEC_TERM_BYTES)?;
        let posting_offsets: Column<u64> = snap.column(SEC_POSTING_OFFSETS)?;
        let postings: Column<NodeId> = snap.column(SEC_POSTINGS)?;
        if posting_offsets.len() != terms.len() + 1 {
            return Err(snap_err(format!(
                "{} posting offsets for {} terms",
                posting_offsets.len(),
                terms.len()
            )));
        }
        match posting_offsets.last() {
            Some(&last) if last as usize == postings.len() => {}
            Some(&last) => {
                return Err(snap_err(format!(
                    "final posting offset {last} does not cover {} postings",
                    postings.len()
                )))
            }
            None => return Err(snap_err("empty posting offset section".into())),
        }
        Ok(InvertedIndex { terms, posting_offsets, postings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::GraphBuilder;

    fn sample() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.add_node("Q1", "SPARQL query language for RDF");
        b.add_node("Q2", "RDF query language");
        b.add_node("Q3", "XPath");
        b.add_node("Q4", "the of and"); // stopwords only: indexes nothing
        b.build()
    }

    #[test]
    fn postings_are_sorted_unique_node_lists() {
        let g = sample();
        let idx = InvertedIndex::build(&g);
        let rdf = idx.lookup("RDF").unwrap();
        assert_eq!(rdf.len(), 2);
        assert!(rdf.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn lookup_analyzes_its_argument() {
        let g = sample();
        let idx = InvertedIndex::build(&g);
        // "languages" stems to the same term as "language"
        assert_eq!(idx.lookup("languages").unwrap().len(), 2);
        // stopword-only lookups miss
        assert!(idx.lookup("the").is_none());
        assert!(idx.lookup("nonexistent").is_none());
    }

    #[test]
    fn frequencies_and_kwf() {
        let g = sample();
        let idx = InvertedIndex::build(&g);
        assert_eq!(idx.frequency("rdf"), 2);
        assert_eq!(idx.frequency("xpath"), 1);
        assert_eq!(idx.frequency("missing"), 0);
        let kwf = idx.avg_frequency(["rdf", "xpath"]);
        assert!((kwf - 1.5).abs() < 1e-9);
        assert_eq!(idx.avg_frequency(std::iter::empty::<&str>()), 0.0);
    }

    #[test]
    fn stopword_only_node_is_unindexed() {
        let g = sample();
        let idx = InvertedIndex::build(&g);
        for (_, freq) in idx.term_frequencies() {
            assert!(freq >= 1);
        }
        // no term points at Q4
        let q4 = g.find_node_by_key("Q4").unwrap();
        for (t, _) in idx.term_frequencies() {
            assert!(!idx.lookup_analyzed(t).unwrap().contains(&q4));
        }
    }

    #[test]
    fn index_counts() {
        let g = sample();
        let idx = InvertedIndex::build(&g);
        // sparql, query, languag, rdf, xpath
        assert_eq!(idx.num_terms(), 5);
        assert!(idx.approx_bytes() > 0);
    }

    #[test]
    fn terms_are_sorted_for_binary_search() {
        let g = sample();
        let idx = InvertedIndex::build(&g);
        let terms: Vec<&str> = idx.term_frequencies().map(|(t, _)| t).collect();
        let mut sorted = terms.clone();
        sorted.sort_unstable();
        assert_eq!(terms, sorted);
        for t in terms {
            assert!(idx.lookup_analyzed(t).is_some());
        }
    }

    #[test]
    fn duplicate_words_in_one_label_index_once() {
        let mut b = GraphBuilder::new();
        b.add_node("n", "data data data");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        assert_eq!(idx.frequency("data"), 1);
    }

    #[test]
    fn empty_index_looks_up_nothing() {
        let idx = InvertedIndex::build(&GraphBuilder::new().build());
        assert_eq!(idx.num_terms(), 0);
        assert!(idx.lookup("anything").is_none());
        let d = InvertedIndex::default();
        assert!(d.lookup_analyzed("x").is_none());
    }

    #[test]
    fn snapshot_round_trip_is_identical() {
        let path =
            std::env::temp_dir().join(format!("textindex-snap-{}.wsnap", std::process::id()));
        let g = sample();
        let idx = InvertedIndex::build(&g);
        let mut w = SnapshotWriter::create(&path).unwrap();
        idx.write_snapshot_sections(&mut w).unwrap();
        w.finish().unwrap();
        let snap = Snapshot::open(&path).unwrap();
        snap.verify_checksums().unwrap();
        let idx2 = InvertedIndex::from_snapshot(&snap).unwrap();
        assert!(idx2.is_memory_mapped());
        assert_eq!(idx2.num_terms(), idx.num_terms());
        for (t, df) in idx.term_frequencies() {
            assert_eq!(idx2.frequency(t), df);
            assert_eq!(idx2.lookup_analyzed(t), idx.lookup_analyzed(t));
        }
        let _ = std::fs::remove_file(path);
    }
}

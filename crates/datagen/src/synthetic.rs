//! Wikidata-shaped synthetic graph generator.
//!
//! The experiments only depend on the *shape* of Wikidata (DESIGN.md §3):
//!
//! * **summary/class hubs** — a small set of class nodes (`human`,
//!   `scholarly article`, …) absorbing one `instance of` edge from every
//!   entity, with Zipf-skewed popularity: huge same-label in-degree ⇒ the
//!   top of the degree-of-summary weighting, exactly like the paper's
//!   `human` node;
//! * **skewed entity in-degrees** — entity→entity edges choose targets by
//!   a Zipf law, producing hub entities; popular targets concentrate their
//!   in-edges in few predicates (low label diversity ⇒ high weight), rare
//!   targets spread over many predicates;
//! * **realistic labels** — node texts are drawn from the workload
//!   vocabulary so query keywords have skewed, non-trivial frequencies
//!   (the Table V `kwf` columns).
//!
//! `wiki2017_sim` / `wiki2018_sim` mirror the two dumps of Table II at
//! laptop scale; set `WIKISEARCH_SCALE` (a float multiplier) to grow or
//! shrink them.

use crate::workload::VOCAB;
use kgraph::{GraphBuilder, KnowledgeGraph, NodeId};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Labels for class/summary nodes, mirroring Wikidata's biggest classes.
static CLASS_LABELS: &[&str] = &[
    "human",
    "scholarly article",
    "taxon",
    "film",
    "village",
    "conference proceedings",
    "research article",
    "painting",
    "asteroid",
    "gene",
    "protein",
    "book",
    "album",
    "mountain",
    "river",
    "road",
    "railway station",
    "company",
    "university",
    "journal",
];

/// Predicate vocabulary (Wikidata-property style).
static PREDICATES: &[&str] = &[
    "instance of",
    "subclass of",
    "part of",
    "main subject",
    "author",
    "published in",
    "cites work",
    "educated at",
    "employer",
    "member of",
    "located in",
    "country",
    "field of work",
    "influenced by",
    "follows",
    "followed by",
    "uses",
    "based on",
    "named after",
    "discoverer",
    "developer",
    "maintained by",
    "depicts",
    "genre",
    "occupation",
    "award received",
    "notable work",
    "contributor",
    "editor",
    "sponsor",
];

/// Generator parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Dataset display name.
    pub name: String,
    /// Number of entity nodes (class nodes come on top).
    pub num_entities: usize,
    /// Number of class/summary nodes.
    pub num_classes: usize,
    /// Average entity→entity edges per entity (on top of the one
    /// `instance of` edge per entity).
    pub entity_edges_per_node: f64,
    /// Zipf exponent of target popularity (≈1 matches web-like skew).
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// Laptop-scale analogue of the paper's wiki2017 dump
    /// (15.1M nodes / 124M edges ⇒ ~8.2 edges/node).
    pub fn wiki2017_sim() -> Self {
        let scale = env_scale();
        SyntheticConfig {
            name: "wiki2017-sim".into(),
            num_entities: (60_000.0 * scale) as usize,
            num_classes: 150,
            entity_edges_per_node: 7.2,
            zipf_exponent: 0.82,
            seed: 2017,
        }
    }

    /// Laptop-scale analogue of the paper's wiki2018 dump
    /// (30.6M nodes / 271M edges ⇒ ~8.9 edges/node).
    pub fn wiki2018_sim() -> Self {
        let scale = env_scale();
        SyntheticConfig {
            name: "wiki2018-sim".into(),
            num_entities: (120_000.0 * scale) as usize,
            num_classes: 250,
            entity_edges_per_node: 7.9,
            zipf_exponent: 0.82,
            seed: 2018,
        }
    }

    /// A small instance for unit/integration tests.
    pub fn tiny(seed: u64) -> Self {
        SyntheticConfig {
            name: "tiny".into(),
            num_entities: 800,
            num_classes: 12,
            entity_edges_per_node: 4.0,
            zipf_exponent: 1.0,
            seed,
        }
    }

    /// Generate the dataset.
    ///
    /// Node ids follow insertion order: class `c` is `NodeId(c)` (key
    /// `C{c}`) and entity `e` is `NodeId(num_classes + e)` (key `Q{e}`).
    /// The edge loops address nodes by that arithmetic, not by key lookup.
    pub fn generate(&self) -> SyntheticDataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = self.num_entities;
        // Edges: one `instance of` per entity, the entity edges, and the
        // stitching below (about n / 50, twice that reserved, plus at most
        // one per class), so the triples never reallocate.
        let mut b = GraphBuilder::with_capacity(
            n + self.num_classes,
            n + (n as f64 * self.entity_edges_per_node) as usize + n / 25 + self.num_classes,
        );
        let class = |c: usize| NodeId::from_index(c);
        let entity = |e: usize| NodeId::from_index(self.num_classes + e);

        // Keys and labels are formatted into two reused buffers.
        let (mut key, mut label) = (String::new(), String::new());

        // Class nodes first (ids 0..num_classes).
        for c in 0..self.num_classes {
            let base = CLASS_LABELS[c % CLASS_LABELS.len()];
            label.clear();
            label.push_str(base);
            if c >= CLASS_LABELS.len() {
                let _ = write!(label, " category {c}");
            }
            key.clear();
            let _ = write!(key, "C{c}");
            let id = b.add_node(&key, &label);
            debug_assert_eq!(id, class(c));
        }

        // Entity nodes with vocabulary-phrase labels. A fraction get two
        // phrases (multi-topic entities), creating keyword co-occurrence.
        for e in 0..n {
            label.clear();
            label.push_str(VOCAB.choose(&mut rng).unwrap());
            if rng.random_bool(0.12) {
                label.push(' ');
                label.push_str(VOCAB.choose(&mut rng).unwrap());
            }
            let _ = write!(label, " {e}");
            key.clear();
            let _ = write!(key, "Q{e}");
            let id = b.add_node(&key, &label);
            debug_assert_eq!(id, entity(e));
        }

        let class_zipf = ZipfTable::new(self.num_classes, self.zipf_exponent + 0.2);
        let entity_zipf = ZipfTable::new(n, self.zipf_exponent);
        let instance_of = b.label("instance of");

        // One `instance of` per entity to a Zipf-popular class: the
        // single-label floods that create summary hubs.
        for e in 0..n {
            let c = class_zipf.sample(&mut rng);
            b.add_edge_with_label(entity(e), class(c), instance_of);
        }

        // Entity→entity edges with Zipf-popular targets. Popular targets
        // use few predicates (low label diversity ⇒ summary-like), rare
        // targets draw uniformly.
        let pred_ids: Vec<_> = PREDICATES.iter().map(|p| b.label(p)).collect();
        let total_extra = (n as f64 * self.entity_edges_per_node) as usize;
        for _ in 0..total_extra {
            let s = rng.random_range(0..n);
            let mut t = entity_zipf.sample(&mut rng);
            if t == s {
                t = (t + 1) % n;
            }
            let pred = if t < n / 100 {
                // hot target: concentrate on 3 predicates keyed by target
                pred_ids[(t * 7 + rng.random_range(0..3usize)) % 5 + 1]
            } else {
                pred_ids[rng.random_range(1..pred_ids.len())]
            };
            b.add_edge_with_label(entity(s), entity(t), pred);
        }

        // Chain stitching: guarantee weak connectivity so sampled average
        // distances are well-defined (Wikidata is one giant component).
        for e in 1..n {
            if rng.random_bool(0.02) {
                let dst = entity(rng.random_range(0..e));
                b.add_edge(entity(e), dst, "follows");
            }
        }
        for e in 0..n.min(self.num_classes * 4) {
            // tie early entities to classes' neighborhood densely enough
            // that class hubs sit on many shortest paths
            if e % 4 == 0 {
                b.add_edge(entity(e), class(e % self.num_classes), "main subject");
            }
        }

        SyntheticDataset { graph: b.build(), config: self.clone() }
    }
}

/// A generated dataset: the graph plus the config that produced it.
pub struct SyntheticDataset {
    /// The generated knowledge graph.
    pub graph: KnowledgeGraph,
    /// Generation parameters (for provenance in experiment output).
    pub config: SyntheticConfig,
}

fn env_scale() -> f64 {
    std::env::var("WIKISEARCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(1.0)
}

/// Zipf sampler over `0..n` via a precomputed CDF. Rank 0 is the most
/// popular item.
///
/// A guide array narrows each draw's binary search: `guide[k]` is the
/// first rank whose CDF reaches `k / 2¹⁴`, so a draw `u` lies between
/// `guide[k]` and `guide[k + 1]` for `k = ⌊u · 2¹⁴⌋`. Scaling by a power of
/// two is exact in `f64`, so the search of that slice finds the same rank
/// as a search of the whole CDF, and the RNG stream is the same.
pub struct ZipfTable {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

/// Guide buckets per unit of probability.
const GUIDE_BUCKETS: usize = 1 << 14;

impl ZipfTable {
    /// Table for `n` items with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let mut guide = Vec::with_capacity(GUIDE_BUCKETS + 1);
        let mut rank = 0;
        for k in 0..=GUIDE_BUCKETS {
            let floor = k as f64 / GUIDE_BUCKETS as f64;
            while rank < n && cdf[rank] < floor {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        ZipfTable { cdf, guide }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        self.rank(rng.random())
    }

    /// The rank a uniform draw `u ∈ [0, 1)` selects: the first whose CDF
    /// reaches `u`, or the last.
    fn rank(&self, u: f64) -> usize {
        let k = (u * GUIDE_BUCKETS as f64) as usize;
        let (lo, hi) = (self.guide[k] as usize, self.guide[k + 1] as usize);
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let table = ZipfTable::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[100] && counts[0] > counts[999]);
        assert!(counts[0] > 1000, "rank 0 should absorb a large share");
    }

    #[test]
    fn guided_draw_is_the_plain_binary_search() {
        // The neighbours of a non-negative `x` in `[0, 1)`.
        let around = |x: f64| {
            let bits = x.to_bits();
            [bits.checked_sub(1).map(f64::from_bits), Some(x), Some(f64::from_bits(bits + 1))]
                .into_iter()
                .flatten()
                .filter(|u| (0.0..1.0).contains(u))
        };
        for n in [1, 2, 150, 60_000] {
            for s in [0.82, 1.02] {
                let table = ZipfTable::new(n, s);
                let plain = |u: f64| table.cdf.partition_point(|&c| c < u).min(n - 1);
                let mut rng = StdRng::seed_from_u64(n as u64);
                let seeded: Vec<f64> = (0..4096).map(|_| rng.random()).collect();
                let bounds = (0..=GUIDE_BUCKETS).map(|k| k as f64 / GUIDE_BUCKETS as f64);
                let draws =
                    seeded.into_iter().chain(bounds.chain(table.cdf.clone()).flat_map(around));
                for u in draws {
                    assert_eq!(table.rank(u), plain(u), "n {n}, s {s}, u {u:e}");
                }
            }
        }
    }

    #[test]
    fn tiny_dataset_has_expected_shape() {
        let ds = SyntheticConfig::tiny(5).generate();
        let g = &ds.graph;
        g.check_invariants().unwrap();
        assert_eq!(g.num_nodes(), 800 + 12);
        // one instance-of per entity plus the extra edges
        assert!(g.num_directed_edges() >= 800);
        // the most popular class is a heavy summary hub
        let c0 = g.find_node_by_key("C0").unwrap();
        assert!(g.in_degree(c0) > 50, "class hub in-degree {}", g.in_degree(c0));
        assert!(g.weight(c0) > 0.5, "class hub weight {}", g.weight(c0));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticConfig::tiny(9).generate();
        let b = SyntheticConfig::tiny(9).generate();
        assert_eq!(a.graph.num_nodes(), b.graph.num_nodes());
        assert_eq!(a.graph.num_directed_edges(), b.graph.num_directed_edges());
        let v = a.graph.nodes().nth(42).unwrap();
        assert_eq!(a.graph.node_text(v), b.graph.node_text(v));
    }

    #[test]
    fn labels_contain_vocabulary_phrases() {
        let ds = SyntheticConfig::tiny(3).generate();
        let g = &ds.graph;
        let q0 = g.find_node_by_key("Q0").unwrap();
        let text = g.node_text(q0);
        assert!(
            VOCAB.iter().any(|p| text.contains(p)),
            "entity label {text:?} should embed a vocabulary phrase"
        );
    }

    /// FNV-1a 64 of the graph's `.bin` encoding: the generator's output
    /// to the byte (RNG stream, node order, labels, edge list).
    fn bin_digest(config: &SyntheticConfig) -> u64 {
        kgraph::snapshot::fnv1a(&kgraph::binio::to_bytes(&config.generate().graph))
    }

    #[test]
    fn generated_bytes_are_pinned() {
        assert_eq!(bin_digest(&SyntheticConfig::tiny(5)), 0x7b0c_6d8d_2612_f555);
        // Set explicitly so `WIKISEARCH_SCALE` cannot change it; its 150
        // classes reach the "… category N" labels.
        let sim =
            SyntheticConfig { num_entities: 3000, seed: 1, ..SyntheticConfig::wiki2017_sim() };
        assert_eq!(sim.num_classes, 150);
        assert_eq!(bin_digest(&sim), 0x843c_0d2d_1478_1ce1);
    }

    /// The sizes the perf ledger serves: the full `wiki2017-sim` preset
    /// (a 60 000-rank Zipf table) and `--entities 25000`, both at seed 1.
    /// Seconds in debug, so release only.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn served_sizes_bytes_are_pinned() {
        let full =
            SyntheticConfig { num_entities: 60_000, seed: 1, ..SyntheticConfig::wiki2017_sim() };
        assert_eq!(bin_digest(&full), 0xf93e_7821_55e6_7554);
        let mid =
            SyntheticConfig { num_entities: 25_000, seed: 1, ..SyntheticConfig::wiki2017_sim() };
        assert_eq!(bin_digest(&mid), 0x186f_0c75_b962_68ef);
    }

    #[test]
    fn presets_differ_in_size() {
        // Don't generate the full presets in unit tests; just check configs.
        let a = SyntheticConfig::wiki2017_sim();
        let b = SyntheticConfig::wiki2018_sim();
        assert!(b.num_entities > a.num_entities);
        assert!(b.entity_edges_per_node > a.entity_edges_per_node);
    }
}

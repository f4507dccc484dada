//! Property tests of the text pipeline: the stemmer is total and
//! shrinking, analysis is deterministic, and index lookups agree with a
//! naive scan.

use kgraph::{GraphBuilder, NodeId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use textindex::analyzer::analyze_unique;
use textindex::{analyze, porter_stem, tokenize, InvertedIndex};

/// Words the memoised index must analyse exactly as `analyze_unique`
/// does: case variants of one term, stopwords, digits-only tokens,
/// alphanumerics, and non-ASCII letters whose lowercase form differs in
/// length (`İ`) or depends on position (a final `Σ`).
const WORDS: &[&str] = &[
    "the",
    "The",
    "OF",
    "and",
    "Data",
    "data",
    "DATA",
    "mining",
    "Mined",
    "mine",
    "networks",
    "Network",
    "2019",
    "42",
    "x9",
    "Gödel",
    "gödel",
    "GÖDEL",
    "İstanbul",
    "İ",
    "naïve",
    "ΟΔΟΣ",
    "οδος",
    "Straße",
];

/// Texts of 0–7 words drawn from [`WORDS`] or spelled at random, joined
/// by assorted separators.
fn texts() -> impl Strategy<Value = Vec<String>> {
    let word = (0usize..WORDS.len() + 1, "[a-zA-Z0-9]{1,5}", 0usize..4);
    proptest::collection::vec(proptest::collection::vec(word, 0..8), 1..24).prop_map(|texts| {
        texts
            .into_iter()
            .map(|words| {
                let mut text = String::new();
                for (pick, spelled, sep) in words {
                    text.push_str(WORDS.get(pick).copied().unwrap_or(&spelled));
                    text.push_str([" ", "-", ", ", "'"][sep]);
                }
                text
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn stemmer_is_total_and_never_panics(word in "\\PC{0,24}") {
        let _ = porter_stem(&word);
    }

    #[test]
    fn stemmer_output_is_bounded(word in "[a-z]{1,24}") {
        let s = porter_stem(&word);
        prop_assert!(!s.is_empty());
        // At most one byte longer than the input (the restored 'e').
        prop_assert!(s.len() <= word.len() + 1, "{word} -> {s}");
        prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase()), "{word} -> {s}");
    }

    #[test]
    fn tokenizer_never_emits_empty_or_uppercase(text in "\\PC{0,64}") {
        for t in tokenize(&text) {
            prop_assert!(!t.is_empty());
            prop_assert_eq!(t.to_lowercase(), t.clone());
            prop_assert!(!t.chars().all(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    fn analysis_is_deterministic_and_idempotent_at_set_level(text in "[a-zA-Z ]{0,48}") {
        let a = analyze(&text);
        let b = analyze(&text);
        prop_assert_eq!(&a, &b);
        // analyzing the joined analysis keeps the same unique term set
        let joined = analyze_unique(&text).join(" ");
        let re: std::collections::HashSet<String> =
            analyze_unique(&joined).into_iter().collect();
        let orig: std::collections::HashSet<String> =
            analyze_unique(&text).into_iter().collect();
        // Re-stemming can only merge terms further, never invent new text
        // that the index would miss at query time (queries pass through
        // the same single-pass pipeline).
        prop_assert!(re.len() <= orig.len());
    }

    #[test]
    fn index_lookup_agrees_with_naive_scan(
        texts in proptest::collection::vec("[a-z]{1,6}( [a-z]{1,6}){0,2}", 1..16),
        probe in "[a-z]{1,6}",
    ) {
        let mut b = GraphBuilder::new();
        for (i, t) in texts.iter().enumerate() {
            b.add_node(&format!("n{i}"), t);
        }
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let term = analyze_unique(&probe);
        prop_assume!(!term.is_empty());
        let term = &term[0];
        let naive: Vec<_> = g
            .nodes()
            .filter(|&v| analyze_unique(g.node_text(v)).contains(term))
            .collect();
        let posted = idx.lookup_analyzed(term).unwrap_or(&[]);
        prop_assert_eq!(posted, &naive[..]);
    }

    #[test]
    fn query_groups_are_subsets_of_keyword_node_union(
        texts in proptest::collection::vec("[a-z]{1,5}( [a-z]{1,5}){0,2}", 1..12),
        q in "[a-z]{1,5}( [a-z]{1,5}){0,3}",
    ) {
        let mut b = GraphBuilder::new();
        for (i, t) in texts.iter().enumerate() {
            b.add_node(&format!("n{i}"), t);
        }
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let parsed = textindex::ParsedQuery::parse(&idx, &q);
        for group in &parsed.groups {
            prop_assert!(!group.nodes.is_empty());
            prop_assert!(group.nodes.windows(2).all(|w| w[0] < w[1]));
            for &v in &group.nodes {
                prop_assert!(
                    analyze_unique(g.node_text(v)).contains(&group.term),
                    "node {v} indexed for {:?} but does not contain it",
                    group.term
                );
            }
        }
    }

    #[test]
    fn memoised_build_equals_per_node_analysis(texts in texts()) {
        let mut b = GraphBuilder::new();
        for (i, t) in texts.iter().enumerate() {
            b.add_node(&format!("n{i}"), t);
        }
        let g = b.build();
        let mut reference: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for v in g.nodes() {
            for term in analyze_unique(g.node_text(v)) {
                reference.entry(term).or_default().push(v);
            }
        }
        let idx = InvertedIndex::build(&g);
        let terms: Vec<(&str, usize)> = idx.term_frequencies().collect();
        let want: Vec<(&str, usize)> =
            reference.iter().map(|(t, p)| (t.as_str(), p.len())).collect();
        prop_assert_eq!(terms, want);
        for (term, postings) in &reference {
            prop_assert_eq!(idx.lookup_analyzed(term), Some(&postings[..]), "{}", term);
        }
    }
}

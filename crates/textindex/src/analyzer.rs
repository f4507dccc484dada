//! The composed analysis pipeline: tokenize → stopword filter → stem.
//!
//! Both node labels (at index-build time) and query strings (at search
//! time) run through exactly this pipeline, so a query term matches a node
//! iff their analyzed forms collide — the contract the paper's keyword
//! groups `T_i` rely on.

use crate::stemmer::porter_stem;
use crate::stopwords::is_stopword;
use crate::tokenizer::raw_tokens;

/// Analyze `text` into index terms: lowercase word tokens with stopwords
/// removed and the Porter stem applied.
///
/// ```
/// use textindex::analyze;
/// assert_eq!(
///     analyze("the Bayesian networks of inference"),
///     vec!["bayesian", "network", "infer"]
/// );
/// ```
pub fn analyze(text: &str) -> Vec<String> {
    raw_tokens(text).filter_map(analyze_token).collect()
}

/// The index term of one raw token (see [`raw_tokens`]): `None` for a
/// stopword, else the Porter stem of its lowercase form. [`analyze`] is
/// this, token by token.
pub fn analyze_token(raw: &str) -> Option<String> {
    let token = raw.to_lowercase();
    (!is_stopword(&token)).then(|| porter_stem(&token))
}

/// Like [`analyze`] but deduplicated, preserving first-occurrence order —
/// the form used for node labels (a label mentioning "data ... data" should
/// index "data" once) and for building keyword groups from a query.
pub fn analyze_unique(text: &str) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    analyze(text).into_iter().filter(|t| seen.insert(t.clone())).collect()
}

/// The canonical, order-insensitive form of a query: analyzed terms
/// (tokenize → stopword filter → stem), deduplicated and **sorted**.
///
/// Two raw strings normalize to the same term list iff they drive the
/// same keyword search — capitalization, word order, duplicate words and
/// stopwords all vanish. This is the cache-key normalization of the
/// serving layer's result cache: `"Einstein physics"`,
/// `"physics  EINSTEIN"` and `"the physics of einstein"` must all
/// collide on one cache slot.
///
/// ```
/// use textindex::normalize_query;
/// assert_eq!(normalize_query("the physics of Einstein"), vec!["einstein", "physic"]);
/// assert_eq!(normalize_query("physics  EINSTEIN"), normalize_query("Einstein physics"));
/// assert!(normalize_query("the of and").is_empty());
/// ```
pub fn normalize_query(raw: &str) -> Vec<String> {
    let mut terms = analyze_unique(raw);
    terms.sort_unstable();
    terms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_applies_all_three_stages() {
        // tokenizes, removes "for", stems "graphs" -> "graph"
        assert_eq!(analyze("Keyword Search for Graphs!"), vec!["keyword", "search", "graph"]);
    }

    #[test]
    fn stopword_only_input_is_empty() {
        assert!(analyze("the of and in").is_empty());
    }

    #[test]
    fn query_and_label_forms_collide() {
        // the core matching contract
        let label = analyze_unique("SPARQL query language for RDF");
        for q in ["querying RDF", "query languages", "SPARQL"] {
            for term in analyze_unique(q) {
                assert!(label.contains(&term), "query term {term:?} must match label {label:?}");
            }
        }
    }

    #[test]
    fn unique_dedups_after_stemming() {
        // "mining" and "mined" stem to the same term
        assert_eq!(analyze_unique("mining mined mine"), vec!["mine"]);
    }

    #[test]
    fn normalize_collapses_case_order_and_stopwords() {
        let a = normalize_query("Einstein physics");
        assert_eq!(a, normalize_query("physics  EINSTEIN"), "word order and case");
        assert_eq!(a, normalize_query("the physics of einstein"), "stopwords");
        assert_eq!(a, vec!["einstein", "physic"], "sorted analyzed terms");
    }

    #[test]
    fn normalize_distinguishes_different_keyword_sets() {
        assert_ne!(normalize_query("einstein"), normalize_query("einstein physics"));
        assert_ne!(normalize_query("relativity einstein"), normalize_query("einstein physics"));
    }

    #[test]
    fn normalize_of_stopword_only_input_is_empty() {
        assert!(normalize_query("the of and in").is_empty());
        assert!(normalize_query("").is_empty());
        assert!(normalize_query("  !!  ").is_empty());
    }
}

//! Word tokenizer for node labels and queries.
//!
//! Splits on any non-alphanumeric character, lowercases, and drops empty
//! and purely-numeric tokens (Wikidata labels are full of years and ids
//! that make poor keywords). Unicode letters are kept — Wikidata labels are
//! multilingual even after English filtering (proper names, diacritics).

/// Tokenize `text` into lowercase word tokens.
///
/// ```
/// use textindex::tokenize;
/// assert_eq!(tokenize("SPARQL 1.1 query-language!"), vec!["sparql", "query", "language"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    raw_tokens(text).map(str::to_lowercase).collect()
}

/// The word tokens of `text` as they appear in it, before lowercasing:
/// its maximal alphanumeric runs that are not purely ASCII digits.
/// [`tokenize`] lowercases each one on its own, so a token's analysis
/// depends on nothing but the token.
pub fn raw_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty() && !t.chars().all(|c| c.is_ascii_digit()))
}

/// Tokenize and deduplicate, preserving first-occurrence order. Used for
/// node labels where repeated words should index once.
pub fn tokenize_unique(text: &str) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    tokenize(text).into_iter().filter(|t| seen.insert(t.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(tokenize("Facebook Query Language"), vec!["facebook", "query", "language"]);
        assert_eq!(tokenize("XPath-2/XPath 3"), vec!["xpath", "xpath"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("RDF SQL XML"), vec!["rdf", "sql", "xml"]);
    }

    #[test]
    fn drops_pure_numbers_keeps_alphanumerics() {
        assert_eq!(tokenize("SPARQL 1.1"), vec!["sparql"]);
        assert_eq!(tokenize("sha256 2048"), vec!["sha256"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- !!! 123").is_empty());
    }

    #[test]
    fn unicode_letters_survive() {
        assert_eq!(tokenize("Gödel's theorem"), vec!["gödel", "s", "theorem"]);
    }

    #[test]
    fn unique_preserves_first_occurrence_order() {
        assert_eq!(
            tokenize_unique("data mining and data analysis"),
            vec!["data", "mining", "and", "analysis"]
        );
    }
}

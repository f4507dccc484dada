//! Graph text formats: a line-oriented TSV triple format and read-only
//! RDF N-Triples.
//!
//! The TSV format is the interchange surface for examples and tooling:
//!
//! ```text
//! # comment lines start with '#'
//! N<TAB>key<TAB>text...
//! E<TAB>src_key<TAB>label<TAB>dst_key
//! ```
//!
//! Node lines must precede the edges that use them; an edge referencing an
//! unseen key implicitly creates a node whose text equals its key (Wikidata
//! dumps behave this way for dangling references).
//!
//! Both line formats (TSV and N-Triples) are read one line at a time
//! through one reused buffer, and a parse error names its 1-based line.

use crate::builder::GraphBuilder;
use crate::error::KgraphError;
use crate::graph::KnowledgeGraph;
use std::io::{BufRead, Write};

/// Serialize `g` to the TSV triple format.
pub fn to_tsv(g: &KnowledgeGraph) -> String {
    let mut out = Vec::new();
    write_tsv(g, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("graph strings are UTF-8")
}

/// Write the TSV form to any [`Write`] sink, line by line. Pass a
/// buffered writer.
pub fn write_tsv<W: Write>(g: &KnowledgeGraph, mut w: W) -> Result<(), KgraphError> {
    writeln!(w, "# kgraph tsv: {} nodes, {} edges", g.num_nodes(), g.num_directed_edges())?;
    for v in g.nodes() {
        writeln!(w, "N\t{}\t{}", g.node_key(v), g.node_text(v))?;
    }
    for (s, l, t) in g.directed_edges() {
        writeln!(w, "E\t{}\t{}\t{}", g.node_key(s), g.label_name(l), g.node_key(t))?;
    }
    Ok(())
}

/// Parse a graph from the TSV triple format.
pub fn from_tsv(text: &str) -> Result<KnowledgeGraph, KgraphError> {
    read_tsv(text.as_bytes())
}

/// Read a graph in TSV form from any buffered source, one line at a time.
pub fn read_tsv<R: BufRead>(r: R) -> Result<KnowledgeGraph, KgraphError> {
    let mut b = GraphBuilder::new();
    for_each_line(r, |lineno, line| {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        let missing = |message: &str| KgraphError::Parse { line: lineno, message: message.into() };
        let mut parts = line.split('\t');
        match parts.next() {
            Some("N") => {
                let key = parts.next().ok_or_else(|| missing("node line missing key"))?;
                let text = parts.next().unwrap_or("");
                b.add_node(key, text);
            }
            Some("E") => {
                let src = parts.next().ok_or_else(|| missing("edge line missing source"))?;
                let label = parts.next().ok_or_else(|| missing("edge line missing label"))?;
                let dst = parts.next().ok_or_else(|| missing("edge line missing target"))?;
                let s = b.node(src).unwrap_or_else(|| b.add_node(src, src));
                let d = b.node(dst).unwrap_or_else(|| b.add_node(dst, dst));
                b.add_edge(s, d, label);
            }
            Some(other) => {
                return Err(KgraphError::Parse {
                    line: lineno,
                    message: format!("unknown record type {other:?}"),
                })
            }
            None => {}
        }
        Ok(())
    })?;
    Ok(b.build())
}

/// Call `f` with each line of `r` and its 1-based number, the line
/// terminator stripped, through one reused buffer. A line that is not
/// UTF-8 is a parse error on that line.
fn for_each_line<R: BufRead>(
    mut r: R,
    mut f: impl FnMut(usize, &str) -> Result<(), KgraphError>,
) -> Result<(), KgraphError> {
    let mut buf = Vec::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        if r.read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        lineno += 1;
        let line = std::str::from_utf8(&buf).map_err(|e| KgraphError::Parse {
            line: lineno,
            message: format!("invalid UTF-8: {e}"),
        })?;
        let line = line.strip_suffix('\n').unwrap_or(line);
        f(lineno, line.strip_suffix('\r').unwrap_or(line))?;
    }
}

/// Parse a graph from RDF N-Triples (the format Wikidata/Freebase/Yago
/// dumps share — the paper: "these knowledge graphs can all be
/// represented in an RDF graph").
///
/// Supported subset, per line: `<s> <p> <o> .` creates an edge, and
/// `<s> <label-ish predicate> "text" .` sets the subject's text (any
/// predicate IRI ending in `label`, `name` or `title` counts; literals on
/// other predicates are ignored, as are language/datatype tags). IRIs are
/// shortened to their final path/fragment segment for keys and labels.
pub fn from_ntriples(text: &str) -> Result<KnowledgeGraph, KgraphError> {
    read_ntriples(text.as_bytes())
}

/// Read a graph in N-Triples form (see [`from_ntriples`]) from any
/// buffered source, one line at a time.
pub fn read_ntriples<R: BufRead>(r: R) -> Result<KnowledgeGraph, KgraphError> {
    let mut b = GraphBuilder::new();
    for_each_line(r, |lineno, line| {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        let Some(rest) = line.strip_suffix('.') else {
            return Err(KgraphError::Parse {
                line: lineno,
                message: "triple must end with '.'".into(),
            });
        };
        let rest = rest.trim_end();
        let (subject, rest) = take_iri(rest, lineno)?;
        let (predicate, rest) = take_iri(rest.trim_start(), lineno)?;
        let object = rest.trim();
        let s = b.node(&subject).unwrap_or_else(|| b.add_node(&subject, &subject));
        if let Some(literal) = parse_literal(object) {
            if is_labelish(&predicate) {
                b.add_node(&subject, &literal);
            }
            return Ok(());
        }
        let (object_iri, trailing) = take_iri(object, lineno)?;
        if !trailing.trim().is_empty() {
            return Err(KgraphError::Parse {
                line: lineno,
                message: format!("unexpected trailing content {trailing:?}"),
            });
        }
        let o = b.node(&object_iri).unwrap_or_else(|| b.add_node(&object_iri, &object_iri));
        b.add_edge(s, o, &predicate);
        Ok(())
    })?;
    Ok(b.build())
}

/// `<iri>` → shortened local name, plus the remaining input.
fn take_iri(input: &str, lineno: usize) -> Result<(String, &str), KgraphError> {
    let err = |m: String| KgraphError::Parse { line: lineno, message: m };
    let input = input.trim_start();
    let Some(rest) = input.strip_prefix('<') else {
        return Err(err(format!("expected '<' at {input:?}")));
    };
    let Some(end) = rest.find('>') else {
        return Err(err("unterminated IRI".into()));
    };
    let iri = &rest[..end];
    let local = iri.rsplit(['/', '#']).next().filter(|s| !s.is_empty()).unwrap_or(iri);
    Ok((local.replace('_', " "), &rest[end + 1..]))
}

/// `"text"` (optionally with `@lang` / `^^<type>` suffix) → the text.
fn parse_literal(input: &str) -> Option<String> {
    let rest = input.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn is_labelish(predicate: &str) -> bool {
    let p = predicate.to_lowercase();
    p.ends_with("label") || p.ends_with("name") || p.ends_with("title")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("Q1", "SPARQL query language");
        let c = b.add_node("Q2", "RDF");
        let d = b.add_node("Q3", "Query language");
        b.add_edge(a, c, "designed for");
        b.add_edge(a, d, "instance of");
        b.build()
    }

    #[test]
    fn tsv_round_trip_preserves_structure() {
        let g = sample();
        let text = to_tsv(&g);
        let g2 = from_tsv(&text).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_directed_edges(), g.num_directed_edges());
        let q1 = g2.find_node_by_key("Q1").unwrap();
        assert_eq!(g2.node_text(q1), "SPARQL query language");
        let mut e1: Vec<_> = g
            .directed_edges()
            .map(|(s, l, t)| {
                (
                    g.node_key(s).to_string(),
                    g.label_name(l).to_string(),
                    g.node_key(t).to_string(),
                )
            })
            .collect();
        let mut e2: Vec<_> = g2
            .directed_edges()
            .map(|(s, l, t)| {
                (
                    g2.node_key(s).to_string(),
                    g2.label_name(l).to_string(),
                    g2.node_key(t).to_string(),
                )
            })
            .collect();
        e1.sort();
        e2.sort();
        assert_eq!(e1, e2);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let g = from_tsv("# header\n\nN\ta\talpha\n").unwrap();
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn dangling_edge_creates_implicit_nodes() {
        let g = from_tsv("E\tx\tp\ty\n").unwrap();
        assert_eq!(g.num_nodes(), 2);
        let x = g.find_node_by_key("x").unwrap();
        assert_eq!(g.node_text(x), "x");
    }

    #[test]
    fn malformed_lines_error_with_line_number() {
        let err = from_tsv("N\ta\ta\nZ\tbogus\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
        let err = from_tsv("E\tonly_src\n").unwrap_err();
        assert!(err.to_string().contains("label"));
    }

    #[test]
    fn a_line_that_is_not_utf8_reports_its_own_number() {
        let err = read_tsv(&b"N\ta\talpha\r\nN\tb\t\xff\n"[..]).unwrap_err();
        assert!(err.to_string().contains("line 2: invalid UTF-8"), "{err}");
        let err = read_ntriples(&b"# ok\n<a> <b> \"\xff\" .\n"[..]).unwrap_err();
        assert!(err.to_string().contains("line 2: invalid UTF-8"), "{err}");
    }

    #[test]
    fn ntriples_parses_edges_and_labels() {
        let nt = r#"
# a Wikidata-flavored snippet
<http://www.wikidata.org/entity/Q42> <http://www.w3.org/2000/01/rdf-schema#label> "Douglas Adams"@en .
<http://www.wikidata.org/entity/Q42> <http://www.wikidata.org/prop/direct/instance_of> <http://www.wikidata.org/entity/Q5> .
<http://www.wikidata.org/entity/Q5> <http://www.w3.org/2000/01/rdf-schema#label> "human" .
<http://www.wikidata.org/entity/Q42> <http://example.org/unrelated> "ignored literal" .
"#;
        let g = from_ntriples(nt).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_directed_edges(), 1);
        let q42 = g.find_node_by_key("Q42").unwrap();
        assert_eq!(g.node_text(q42), "Douglas Adams");
        let q5 = g.find_node_by_key("Q5").unwrap();
        assert_eq!(g.node_text(q5), "human");
        let (_, l, t) = g.directed_edges().next().unwrap();
        assert_eq!(g.label_name(l), "instance of");
        assert_eq!(t, q5);
    }

    #[test]
    fn ntriples_rejects_malformed_lines() {
        assert!(from_ntriples("<a> <b> <c>").is_err(), "missing dot");
        assert!(from_ntriples("a <b> <c> .").is_err(), "bare subject");
        assert!(from_ntriples("<a> <b> <c> <d> .").is_err(), "four terms");
        assert!(from_ntriples("<a> <unclosed .").is_err());
    }

    #[test]
    fn ntriples_search_end_to_end_shape() {
        // The imported graph behaves like any other KnowledgeGraph.
        let nt = r#"
<http://kb/XML> <http://kb/related_to> <http://kb/Query_language> .
<http://kb/SQL> <http://kb/instance_of> <http://kb/Query_language> .
"#;
        let g = from_ntriples(nt).unwrap();
        g.check_invariants().unwrap();
        assert_eq!(g.num_nodes(), 3);
        // underscores become spaces in local names
        assert!(g.find_node_by_key("Query language").is_some());
    }

    #[test]
    fn json_round_trip_via_serde() {
        // A graph enters through the builder or a compiled snapshot
        // only, so `.json` is refused on load and on save.
        let path = std::env::temp_dir().join(format!("kgraph-io-{}-kb.json", std::process::id()));
        std::fs::write(&path, "{}").unwrap();
        let load = crate::store::load_graph(&path).unwrap_err();
        let save = crate::store::save_graph(&sample(), &path).unwrap_err();
        let kept = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        for err in [load, save] {
            assert!(err.to_string().contains("unsupported extension \"json\""), "{err}");
        }
        assert_eq!(kept, "{}", "a refused save writes nothing");
    }
}

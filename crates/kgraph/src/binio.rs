//! Compact binary graph serialization: a length-prefixed little-endian
//! format sized for the multi-million-edge synthetic dumps:
//!
//! ```text
//! magic "KGR1" | u64 n | u64 m_directed | u64 labels
//! label table:  labels × (u32 len, bytes)
//! node table:   n × (u32 key_len, key, u32 text_len, text)
//! edge table:   m × (u32 src, u32 label, u32 dst)
//! ```
//!
//! [`write_to`] streams a graph to any writer, field by field, so a save
//! never stages the whole file in memory; [`to_bytes`] is the same
//! serializer into a `Vec`. [`read_from`] parses a file in one pass from
//! a buffered reader, so a load never holds the file's bytes and the graph
//! at once. The CSR, degrees and weights are rebuilt through the normal
//! builder path, so a loaded graph is bit-identical in behaviour to the
//! originally built one (property-tested).

use crate::builder::GraphBuilder;
use crate::error::KgraphError;
use crate::graph::KnowledgeGraph;
use crate::ids::LabelId;
use bytes::Bytes;
use std::io::{ErrorKind, Read, Write};

const MAGIC: &[u8; 4] = b"KGR1";

/// Edges [`read_from`] reads at a time: 48 KiB.
const EDGES_PER_READ: usize = 4096;

/// Serialize to the binary format in memory, into a buffer allocated at
/// its exact size: the header, a length per string, the string bytes and
/// 12 bytes per edge.
pub fn to_bytes(g: &KnowledgeGraph) -> Bytes {
    let strings: usize = [g.label_names_table(), g.node_keys_table(), g.node_texts_table()]
        .iter()
        .map(|t| t.bytes().len())
        .sum();
    let len = 28 + 4 * (g.num_labels() + 2 * g.num_nodes()) + 12 * g.num_directed_edges() + strings;
    let mut buf = Vec::with_capacity(len);
    write_to(g, &mut buf).expect("writing to a Vec cannot fail");
    debug_assert_eq!(buf.len(), len, "the binary size formula is exact");
    buf.into()
}

/// Serialize to the binary format, streamed into `w`. Pass a buffered
/// writer: every field is one small write.
pub fn write_to<W: Write>(g: &KnowledgeGraph, mut w: W) -> std::io::Result<()> {
    w.write_all(MAGIC)?;
    for count in [g.num_nodes(), g.num_directed_edges(), g.num_labels()] {
        w.write_all(&(count as u64).to_le_bytes())?;
    }
    for l in 0..g.num_labels() {
        write_str(&mut w, g.label_name(LabelId::from_index(l)))?;
    }
    for v in g.nodes() {
        write_str(&mut w, g.node_key(v))?;
        write_str(&mut w, g.node_text(v))?;
    }
    for (s, l, t) in g.directed_edges() {
        let mut edge = [0u8; 12];
        edge[..4].copy_from_slice(&s.0.to_le_bytes());
        edge[4..8].copy_from_slice(&l.0.to_le_bytes());
        edge[8..].copy_from_slice(&t.0.to_le_bytes());
        w.write_all(&edge)?;
    }
    Ok(())
}

fn write_str<W: Write>(w: &mut W, s: &str) -> std::io::Result<()> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

/// Deserialize from the binary format.
pub fn from_bytes(data: &[u8]) -> Result<KnowledgeGraph, KgraphError> {
    read_from(data, data.len() as u64)
}

/// Deserialize the `len` bytes of the binary format that `r` yields, in
/// one pass: one reused buffer per string field, no copy of the whole
/// input and no `String` per key or text. Header counts that `len` bytes
/// cannot hold (4 bytes per label, 8 per node, 12 per edge) are refused
/// before anything is allocated for them.
pub fn read_from<R: Read>(r: R, len: u64) -> Result<KnowledgeGraph, KgraphError> {
    let mut input = Input { r, left: len };
    let mut head = [0u8; 28];
    input.fill(&mut head, "header")?;
    if &head[..4] != MAGIC {
        return Err(parse_err("bad magic"));
    }
    let count = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
    let (n, m, labels) = (count(4), count(12), count(20));
    let least = labels as u128 * 4 + n as u128 * 8 + m as u128 * 12;
    if least > input.left as u128 {
        return Err(parse_err(&format!(
            "truncated: header claims {n} nodes, {m} edges and {labels} labels, \
             more than {len} bytes hold"
        )));
    }
    let (n, m, labels) = (n as usize, m as usize, labels as usize);
    let mut b = GraphBuilder::with_capacity(n, m);
    let (mut key, mut text) = (Vec::new(), Vec::new());
    let mut label_ids = Vec::with_capacity(labels);
    for _ in 0..labels {
        label_ids.push(b.label(input.str(&mut key)?));
    }
    let mut node_ids = Vec::with_capacity(n);
    for _ in 0..n {
        let k = input.str(&mut key)?;
        node_ids.push(b.add_node(k, input.str(&mut text)?));
    }
    // The edge table is read in blocks of up to `EDGES_PER_READ` edges.
    let mut block = vec![0u8; 12 * m.min(EDGES_PER_READ)];
    let mut left = m;
    while left > 0 {
        let block = &mut block[..12 * left.min(EDGES_PER_READ)];
        input.fill(block, "edge table")?;
        for edge in block.chunks_exact(12) {
            let field = |at: usize| {
                u32::from_le_bytes(edge[at..at + 4].try_into().expect("4 bytes")) as usize
            };
            let (s, l, t) = (field(0), field(4), field(8));
            if s >= n || t >= n || l >= labels {
                return Err(parse_err("edge index out of bounds"));
            }
            b.add_edge_with_label(node_ids[s], node_ids[t], label_ids[l]);
        }
        left -= block.len() / 12;
    }
    drop((block, node_ids, label_ids));
    Ok(b.build())
}

fn parse_err(message: &str) -> KgraphError {
    KgraphError::Parse { line: 0, message: message.to_string() }
}

/// A reader that knows how many bytes are left, so no length field can
/// make it allocate more than the input holds.
struct Input<R> {
    r: R,
    left: u64,
}

impl<R: Read> Input<R> {
    fn fill(&mut self, buf: &mut [u8], what: &str) -> Result<(), KgraphError> {
        if buf.len() as u64 > self.left {
            return Err(parse_err(&format!("truncated {what}")));
        }
        self.r.read_exact(buf).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => parse_err(&format!("truncated {what}")),
            _ => KgraphError::Io(e),
        })?;
        self.left -= buf.len() as u64;
        Ok(())
    }

    /// The next length-prefixed string, read into `buf`.
    fn str<'b>(&mut self, buf: &'b mut Vec<u8>) -> Result<&'b str, KgraphError> {
        let mut len = [0u8; 4];
        self.fill(&mut len, "string length")?;
        let len = u32::from_le_bytes(len) as usize;
        if len as u64 > self.left {
            return Err(parse_err("truncated string body"));
        }
        buf.resize(len, 0);
        self.fill(buf, "string body")?;
        std::str::from_utf8(buf).map_err(|_| parse_err("invalid utf-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let x = b.add_node("Q1", "XML schema");
        let y = b.add_node("Q2", "RDF");
        let z = b.add_node("Q3", "naïve — unicode ✓");
        b.add_edge(x, y, "related to");
        b.add_edge(y, z, "instance of");
        b.add_edge(z, x, "instance of");
        b.build()
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        let g = sample();
        let bytes = to_bytes(&g);
        let g2 = from_bytes(&bytes).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_directed_edges(), g.num_directed_edges());
        assert_eq!(g2.num_labels(), g.num_labels());
        for v in g.nodes() {
            assert_eq!(g2.node_key(v), g.node_key(v));
            assert_eq!(g2.node_text(v), g.node_text(v));
            assert_eq!(g2.degree(v), g.degree(v));
            assert!((g2.weight(v) - g.weight(v)).abs() < 1e-6);
        }
        g2.check_invariants().unwrap();
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        // Measured against the TSV of the same graph, which spells out
        // both keys and the label on every edge line; the binary form
        // spends 12 bytes per edge.
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..100)
            .map(|i| b.add_node(&format!("Q{}", 1_000_000 + i), &format!("entity {i}")))
            .collect();
        for (s, k) in (0..100).flat_map(|s| (1..=10).map(move |k| (s, k))) {
            b.add_edge(v[s], v[(s + k) % 100], ["instance of", "subclass of"][k % 2]);
        }
        let g = b.build();
        let bin = to_bytes(&g).len();
        let tsv = crate::io::to_tsv(&g).len();
        assert!(bin * 2 < tsv, "binary {bin}B should be far below tsv {tsv}B");
    }

    #[test]
    fn non_ascii_keys_texts_and_labels_round_trip() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("Q·1", "Zürich — city ✓");
        let y = b.add_node("Ключ", "東京");
        b.add_edge(x, y, "près de");
        b.add_edge(y, x, "近い");
        let g = b.build();
        // `to_bytes` asserts (in debug builds) that its size formula,
        // which counts string bytes rather than chars, is exact.
        let bytes = to_bytes(&g);
        let g2 = from_bytes(&bytes).unwrap();
        for v in g.nodes() {
            assert_eq!(g2.node_key(v), g.node_key(v));
            assert_eq!(g2.node_text(v), g.node_text(v));
        }
        assert!(g2.label_names_table().iter().eq(g.label_names_table().iter()));
        assert_eq!(to_bytes(&g2), bytes);
    }

    #[test]
    fn corrupted_inputs_error_cleanly() {
        let g = sample();
        let bytes = to_bytes(&g);
        assert!(from_bytes(&[]).is_err());
        assert!(from_bytes(b"NOPE").is_err());
        assert!(from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(from_bytes(&bad).is_err());
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new().build();
        let g2 = from_bytes(&to_bytes(&g)).unwrap();
        assert_eq!(g2.num_nodes(), 0);
    }
}

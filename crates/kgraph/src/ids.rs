//! Strongly-typed identifiers for nodes and edge labels.
//!
//! Both are thin `u32` newtypes: the paper's datasets top out at tens of
//! millions of nodes, so 32-bit indices halve the CSR footprint relative to
//! `usize` on 64-bit hosts (this matters for Table IV's storage accounting).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node in a [`crate::KnowledgeGraph`].
///
/// Node ids are dense: a graph with `n` nodes uses exactly the ids
/// `0..n`, which lets every per-node table in the search engine be a flat
/// array indexed by `NodeId`.
///
/// `repr(transparent)` pins the layout to a bare `u32` so id arrays can
/// live inside memory-mapped snapshots ([`crate::column::Pod`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct NodeId(pub u32);

/// Identifier of an edge label (a Wikidata-style property such as
/// `instance of` or `published in`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct LabelId(pub u32);

// SAFETY: a `repr(transparent)` `u32` newtype — `u32`'s layout, no
// padding, every bit pattern valid.
unsafe impl crate::column::Pod for NodeId {}
// SAFETY: as `NodeId`.
unsafe impl crate::column::Pod for LabelId {}

impl NodeId {
    /// The id as a `usize`, for indexing per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense array index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "node index overflows u32");
        NodeId(i as u32)
    }
}

impl LabelId {
    /// The id as a `usize`, for indexing per-label arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense array index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "label index overflows u32");
        LabelId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        for i in [0usize, 1, 42, 1 << 20] {
            assert_eq!(NodeId::from_index(i).index(), i);
        }
    }

    #[test]
    fn label_id_round_trips_through_index() {
        for i in [0usize, 7, 1 << 16] {
            assert_eq!(LabelId::from_index(i).index(), i);
        }
    }

    #[test]
    fn display_formats_match_paper_notation() {
        assert_eq!(NodeId(3).to_string(), "v3");
        assert_eq!(LabelId(5).to_string(), "r5");
    }

    #[test]
    fn ids_order_by_numeric_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(LabelId(0) < LabelId(9));
    }
}

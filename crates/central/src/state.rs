//! Lock-free search state: the node–keyword matrix `M`, the frontier
//! flags `FIdentifier` and the central flags `CIdentifier` (paper
//! Sec. V-B, *Initialization*) — **epoch-stamped** so one allocation can
//! serve many queries (DESIGN.md, *Session reuse & epoch stamping*).
//!
//! Theorem V.2 of the paper is the correctness anchor: during one
//! expansion level every write to `M` stores the same value `l + 1` and
//! every write to `FIdentifier` stores `1`, so concurrent duplicate writes
//! are benign and no locks are needed. We therefore use plain atomics with
//! `Relaxed` ordering inside a level; the level-synchronous driver places
//! the necessary happens-before edges at its fork/join boundaries (rayon's
//! scope joins synchronize).
//!
//! ## Epoch stamping
//!
//! Each cell is an `AtomicU32` packing `(epoch << 8) | value`, where the
//! value byte holds the cell's logical `u8` payload (a hitting level, a
//! frontier flag, or a central depth + 1). A cell is *current* iff its
//! stamped epoch equals the state's query epoch; any other stamp reads as
//! the unset value (`∞` / `0`). [`SearchState::begin_query`] therefore
//! resets the entire `n × q` matrix with a single epoch increment instead
//! of an `O(n·q)` clear — the warm path of a [`crate::session::SearchSession`]
//! allocates nothing and touches only the source cells.
//!
//! Epochs are 24-bit and start at 1; 0 is the never-current stamp of a
//! freshly zeroed cell. On wrap-around (once every 2²⁴ queries) the state
//! zeroes every cell once and restarts at epoch 1, so a recycled stamp can
//! never masquerade as current. Theorem V.2 is unaffected: within one
//! query all racing writers pack the *same* epoch with the *same* value,
//! so duplicate packed writes remain benign (see DESIGN.md for the full
//! argument).

use crate::model::INFINITE_LEVEL;
use std::sync::atomic::{AtomicU32, Ordering};
use textindex::ParsedQuery;

/// Bits of the value byte in a packed cell.
const VALUE_BITS: u32 = 8;
/// Mask of the value byte.
const VALUE_MASK: u32 = 0xFF;
/// First epoch past the 24-bit range — triggers the hard reset.
const EPOCH_LIMIT: u32 = 1 << (32 - VALUE_BITS);

/// Pack an epoch stamp and a value byte into one cell word.
#[inline]
fn pack(epoch: u32, value: u8) -> u32 {
    (epoch << VALUE_BITS) | u32::from(value)
}

/// The value byte of `cell` if its stamp matches `epoch`, else `default`.
#[inline]
fn unpack(cell: u32, epoch: u32, default: u8) -> u8 {
    if cell >> VALUE_BITS == epoch {
        (cell & VALUE_MASK) as u8
    } else {
        default
    }
}

/// Mutable (atomic) per-search state shared by all threads.
///
/// Constructed once (ideally inside a [`crate::session::SearchSession`])
/// and re-armed per query by [`SearchState::begin_query`]; the classic
/// [`SearchState::new`] remains as the one-shot convenience path.
pub struct SearchState {
    /// Number of query keywords `q`.
    q: usize,
    /// Number of graph nodes.
    n: usize,
    /// Current query epoch (24-bit, ≥ 1 once a query began).
    epoch: u32,
    /// `M`: row-major `n × q` hitting levels; value byte `255` = ∞.
    matrix: Vec<AtomicU32>,
    /// `FIdentifier`: value byte 1 ⇔ node is a frontier at the next level.
    frontier: Vec<AtomicU32>,
    /// `CIdentifier`: value byte 0 ⇔ not central; otherwise the node is a
    /// Central Node identified at depth `value − 1`. Storing the depth
    /// (instead of the paper's plain flag) lets Theorem V.4 extraction
    /// reject predecessor edges a frozen central node could never have
    /// produced.
    central: Vec<AtomicU32>,
    /// Epoch stamp per node: current ⇔ node contains at least one query
    /// keyword (`v ∈ ∪T_i`). Written only under `&mut` in `begin_query`;
    /// keyword nodes may be *hit* regardless of their activation level
    /// (Sec. IV-B).
    is_keyword: Vec<u32>,
}

impl Default for SearchState {
    /// Same as [`SearchState::empty`].
    fn default() -> Self {
        SearchState::empty()
    }
}

impl SearchState {
    /// An empty state holding no allocation; arm it with
    /// [`SearchState::begin_query`].
    pub fn empty() -> Self {
        SearchState {
            q: 0,
            n: 0,
            epoch: 0,
            matrix: Vec::new(),
            frontier: Vec::new(),
            central: Vec::new(),
            is_keyword: Vec::new(),
        }
    }

    /// Allocate state for `n` nodes and the query's keyword groups, and
    /// seed the sources: `M[v][i] = 0` and `FIdentifier[v] = 1` for every
    /// `v ∈ T_i`. One-shot equivalent of `empty()` + `begin_query`.
    pub fn new(n: usize, query: &ParsedQuery) -> Self {
        let mut state = Self::empty();
        state.begin_query(n, query);
        state
    }

    /// Re-arm the state for a new query over `n` nodes: bump the epoch
    /// (logically clearing every cell at once), grow the buffers if this
    /// query needs more room than any before it, and seed the sources.
    ///
    /// On the warm path — same graph, any query — this performs **zero
    /// allocations** and writes only the source cells; cells stamped by
    /// earlier queries read as unset through the epoch check.
    pub fn begin_query(&mut self, n: usize, query: &ParsedQuery) {
        self.epoch += 1;
        if self.epoch == EPOCH_LIMIT {
            // Once every 2^24 queries: zero all stamps so recycled epochs
            // can never read as current, then restart at 1.
            self.hard_reset();
            self.epoch = 1;
        }
        self.q = query.num_keywords();
        self.n = n;
        let cells = n * self.q;
        if self.matrix.len() < cells {
            self.matrix.resize_with(cells, || AtomicU32::new(0));
        }
        if self.frontier.len() < n {
            self.frontier.resize_with(n, || AtomicU32::new(0));
            self.central.resize_with(n, || AtomicU32::new(0));
            self.is_keyword.resize(n, 0);
        }
        let epoch = self.epoch;
        for (i, group) in query.groups.iter().enumerate() {
            for &v in &group.nodes {
                self.matrix[v.index() * self.q + i].store(pack(epoch, 0), Ordering::Relaxed);
                self.frontier[v.index()].store(pack(epoch, 1), Ordering::Relaxed);
                self.is_keyword[v.index()] = epoch;
            }
        }
    }

    /// Zero every cell (stamps included). Only needed on epoch wrap.
    fn hard_reset(&mut self) {
        for cell in &mut self.matrix {
            *cell.get_mut() = 0;
        }
        for cell in &mut self.frontier {
            *cell.get_mut() = 0;
        }
        for cell in &mut self.central {
            *cell.get_mut() = 0;
        }
        self.is_keyword.fill(0);
    }

    /// The current query epoch (diagnostics/tests).
    #[inline]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Read and clear one frontier flag (sequential enqueue). A stale
    /// stamp reads as clear and is left untouched.
    #[inline]
    pub fn take_frontier_flag(&self, v: u32) -> bool {
        let cell = self.frontier[v as usize].load(Ordering::Relaxed);
        if unpack(cell, self.epoch, 0) == 1 {
            self.frontier[v as usize].store(pack(self.epoch, 0), Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Read a frontier flag without clearing (parallel compaction reads
    /// first, clears in bulk).
    #[inline]
    pub fn frontier_flag(&self, v: u32) -> bool {
        unpack(self.frontier[v as usize].load(Ordering::Relaxed), self.epoch, 0) == 1
    }
}

/// The reads of the bottom-up stage (and of the cost model's replay of
/// it): relaxed loads through the epoch check.
impl SearchState {
    /// Number of query keywords `q`.
    #[inline]
    pub fn num_keywords(&self) -> usize {
        self.q
    }

    /// Hitting level `h_v^i` (255 = never hit).
    #[inline]
    pub fn hit(&self, v: u32, i: usize) -> u8 {
        let cell = self.matrix[v as usize * self.q + i].load(Ordering::Relaxed);
        unpack(cell, self.epoch, INFINITE_LEVEL)
    }

    /// All of `v`'s hitting levels at once: `out[i] = h_v^i`.
    pub fn row_into(&self, v: u32, out: &mut [u8]) {
        for (h, cell) in out.iter_mut().zip(&self.matrix[v as usize * self.q..][..self.q]) {
            *h = unpack(cell.load(Ordering::Relaxed), self.epoch, INFINITE_LEVEL);
        }
    }

    /// `true` if `v` contains at least one query keyword.
    #[inline]
    pub fn is_keyword_node(&self, v: u32) -> bool {
        self.is_keyword[v as usize] == self.epoch
    }

    /// If `v` is a Central Node, the depth at which it was identified.
    #[inline]
    pub fn central_depth(&self, v: u32) -> Option<u8> {
        match unpack(self.central[v as usize].load(Ordering::Relaxed), self.epoch, 0) {
            0 => None,
            d => Some(d - 1),
        }
    }

    /// `true` if `v` was identified as a Central Node.
    #[inline]
    pub fn is_central(&self, v: u32) -> bool {
        self.central_depth(v).is_some()
    }

    /// Copy this query's `M` into `block`: one streaming pass of the order
    /// of one enqueue scan. Taken once the bottom-up stage has finished —
    /// the exclusive borrow says so, and lets the pass read the cells as
    /// plain words: nothing writes `M` afterwards.
    pub fn fill(&mut self, block: &mut HitBlock) {
        let epoch = self.epoch;
        block.begin(self.n, self.q).extend(
            self.matrix[..self.n * self.q]
                .iter_mut()
                .map(|cell| unpack(*cell.get_mut(), epoch, INFINITE_LEVEL)),
        );
    }
}

/// The finished `M` of one query as plain bytes — **all** the top-down
/// stage reads of a bottom-up search, whatever shape ran it. A shape fills
/// the rows once its [`crate::bottom_up::drive`] has returned (the matrix
/// engines by [`SearchState::fill`], the others by scattering rows into
/// [`HitBlock::unhit`]); [`crate::bottom_up::LevelRun::finish`] marks the
/// central nodes from its cohort. A keyword node is a node whose row holds
/// a 0: level 0 is written only when the sources are seeded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HitBlock {
    q: usize,
    /// Row-major `n × q` hitting levels, 255 = ∞.
    rows: Vec<u8>,
    /// Per node: 0 ⇔ not central, else its identification depth + 1.
    central: Vec<u8>,
}

impl HitBlock {
    /// Start a fill for `n` nodes × `q` keywords: no node central, the
    /// row bytes emptied and handed back for the shape to write `n · q` of.
    fn begin(&mut self, n: usize, q: usize) -> &mut Vec<u8> {
        self.q = q;
        self.central.clear();
        self.central.resize(n, 0);
        self.rows.clear();
        &mut self.rows
    }

    /// Start a fill by scatter: `n` rows of `q` never-hit cells.
    pub fn unhit(&mut self, n: usize, q: usize) {
        self.begin(n, q).resize(n * q, INFINITE_LEVEL);
    }

    /// Number of query keywords `q`.
    #[inline]
    pub fn num_keywords(&self) -> usize {
        self.q
    }

    /// `v`'s hitting levels: `row(v)[i] = h_v^i` (255 = never hit).
    #[inline]
    pub fn row(&self, v: u32) -> &[u8] {
        &self.rows[v as usize * self.q..][..self.q]
    }

    /// `v`'s hitting levels, for a shape's fill.
    #[inline]
    pub fn row_mut(&mut self, v: u32) -> &mut [u8] {
        &mut self.rows[v as usize * self.q..][..self.q]
    }

    /// `true` if `v` contains at least one query keyword.
    #[inline]
    pub fn is_keyword_node(&self, v: u32) -> bool {
        self.row(v).contains(&0)
    }

    /// If `v` is a Central Node, the depth at which it was identified —
    /// it stopped expanding there, which extraction must respect.
    #[inline]
    pub fn central_depth(&self, v: u32) -> Option<u8> {
        self.central[v as usize].checked_sub(1)
    }

    /// Mark `v` as a Central Node identified at `depth`.
    pub(crate) fn mark_central(&mut self, v: u32, depth: u8) {
        self.central[v as usize] = depth + 1;
    }
}

/// The cell writes of the bottom-up stage. Every write is the
/// racing-equal-values kind Theorem V.2 covers — a plain store suffices —
/// hence `&self`.
impl SearchState {
    /// Record a hit: `M[v][i] ← level`.
    #[inline]
    pub fn set_hit(&self, v: u32, i: usize, level: u8) {
        self.matrix[v as usize * self.q + i].store(pack(self.epoch, level), Ordering::Relaxed);
    }

    /// `true` if `v` has been hit by every BFS instance — the Central Node
    /// condition (Def. 3).
    #[inline]
    pub fn row_complete(&self, v: u32) -> bool {
        let base = v as usize * self.q;
        self.matrix[base..base + self.q].iter().all(|m| {
            unpack(m.load(Ordering::Relaxed), self.epoch, INFINITE_LEVEL) != INFINITE_LEVEL
        })
    }

    /// Set `FIdentifier[v] ← 1` (node becomes/stays a frontier).
    #[inline]
    pub fn mark_frontier(&self, v: u32) {
        self.frontier[v as usize].store(pack(self.epoch, 1), Ordering::Relaxed);
    }

    /// Mark `v` as a Central Node identified at `depth` (it becomes
    /// unavailable for expansion from this level on).
    #[inline]
    pub fn mark_central(&self, v: u32, depth: u8) {
        debug_assert!(depth < u8::MAX);
        self.central[v as usize].store(pack(self.epoch, depth + 1), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::GraphBuilder;
    use textindex::InvertedIndex;

    fn fixture() -> (kgraph::KnowledgeGraph, ParsedQuery) {
        let mut b = GraphBuilder::new();
        b.add_node("a", "apple fruit");
        b.add_node("b", "banana fruit");
        b.add_node("c", "cherry");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "apple banana fruit");
        (g, q)
    }

    fn state() -> SearchState {
        let (g, q) = fixture();
        SearchState::new(g.num_nodes(), &q)
    }

    #[test]
    fn sources_are_seeded() {
        let s = state();
        assert_eq!(s.num_keywords(), 3);
        // node 0 "apple fruit": source of keyword 0 (apple) and 2 (fruit)
        assert_eq!(s.hit(0, 0), 0);
        assert_eq!(s.hit(0, 1), INFINITE_LEVEL);
        assert_eq!(s.hit(0, 2), 0);
        assert!(s.frontier_flag(0));
        assert!(s.frontier_flag(1));
        assert!(!s.frontier_flag(2), "cherry matches nothing");
        assert!(s.is_keyword_node(0));
        assert!(!s.is_keyword_node(2));
    }

    #[test]
    fn row_complete_requires_every_keyword() {
        let s = state();
        assert!(!s.row_complete(0));
        s.set_hit(0, 1, 2);
        assert!(s.row_complete(0));
    }

    #[test]
    fn take_frontier_flag_clears() {
        let s = state();
        assert!(s.take_frontier_flag(0));
        assert!(!s.take_frontier_flag(0));
        s.mark_frontier(0);
        assert!(s.take_frontier_flag(0));
    }

    /// A filled block answers what the state answers: the same rows, with
    /// "keyword node" (and a node's keyword count) read off their zeros.
    #[test]
    fn keyword_counts_reflect_sources() {
        let mut s = state();
        s.set_hit(2, 1, 3);
        let mut block = HitBlock::default();
        block.unhit(7, 5); // a larger earlier query must not show through
        s.fill(&mut block);
        assert_eq!((block.central.len(), block.rows.len(), block.num_keywords()), (3, 9, 3));
        assert_eq!(block.row(0), [0, INFINITE_LEVEL, 0]); // apple, fruit
        assert_eq!(block.row(1), [INFINITE_LEVEL, 0, 0]); // banana, fruit
        assert_eq!(block.row(2), [INFINITE_LEVEL, 3, INFINITE_LEVEL]);
        let mut row = [0u8; 3];
        for v in 0..3 {
            s.row_into(v, &mut row);
            assert_eq!(block.row(v), row);
            assert_eq!(block.is_keyword_node(v), s.is_keyword_node(v));
            assert_eq!(block.central_depth(v), None);
        }
        block.mark_central(2, 0);
        assert_eq!(block.central_depth(2), Some(0));
    }

    #[test]
    fn central_flags_carry_identification_depth() {
        let s = state();
        assert!(!s.is_central(1));
        assert_eq!(s.central_depth(1), None);
        s.mark_central(1, 3);
        assert!(s.is_central(1));
        assert_eq!(s.central_depth(1), Some(3));
        s.mark_central(2, 0);
        assert_eq!(s.central_depth(2), Some(0));
    }

    #[test]
    fn epoch_bump_invalidates_previous_query_writes() {
        let (g, q) = fixture();
        let mut s = SearchState::new(g.num_nodes(), &q);
        s.set_hit(2, 0, 4);
        s.mark_central(2, 4);
        s.mark_frontier(2);
        assert_eq!(s.hit(2, 0), 4);
        // Re-arm: everything from the old epoch must read as unset.
        s.begin_query(g.num_nodes(), &q);
        assert_eq!(s.hit(2, 0), INFINITE_LEVEL);
        assert!(!s.is_central(2));
        assert_eq!(s.central_depth(2), None);
        assert!(!s.frontier_flag(2));
        assert!(!s.take_frontier_flag(2));
        // But the new query's sources were re-seeded.
        assert_eq!(s.hit(0, 0), 0);
        assert!(s.frontier_flag(0));
        assert!(s.is_keyword_node(0));
    }

    #[test]
    fn warm_begin_query_does_not_reallocate() {
        let (g, q) = fixture();
        let mut s = SearchState::new(g.num_nodes(), &q);
        let matrix_ptr = s.matrix.as_ptr();
        let frontier_ptr = s.frontier.as_ptr();
        for _ in 0..10 {
            s.begin_query(g.num_nodes(), &q);
        }
        assert_eq!(s.matrix.as_ptr(), matrix_ptr, "matrix must be reused in place");
        assert_eq!(s.frontier.as_ptr(), frontier_ptr, "flags must be reused in place");
        assert_eq!(s.epoch(), 11);
    }

    #[test]
    fn buffers_grow_for_larger_queries() {
        let (g, q) = fixture();
        let mut s = SearchState::empty();
        assert_eq!(s.epoch(), 0);
        s.begin_query(g.num_nodes(), &q);
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.num_keywords(), 3);
        // A wider graph with the same query grows the buffers.
        s.begin_query(g.num_nodes() + 5, &q);
        assert_eq!(s.num_nodes(), 8);
        assert_eq!(s.hit(7, 0), INFINITE_LEVEL);
        assert!(!s.is_central(7));
    }

    #[test]
    fn epoch_wrap_hard_resets() {
        let (g, q) = fixture();
        let mut s = SearchState::new(g.num_nodes(), &q);
        s.set_hit(2, 1, 7);
        // Force the wrap: the next begin_query hits EPOCH_LIMIT, zeroes all
        // cells and restarts at epoch 1.
        s.epoch = EPOCH_LIMIT - 1;
        s.begin_query(g.num_nodes(), &q);
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.hit(2, 1), INFINITE_LEVEL, "pre-wrap write must not survive");
        assert_eq!(s.hit(0, 0), 0, "sources re-seeded after the wrap");
    }

    #[test]
    fn stale_epoch_cells_never_alias_current_values() {
        // A cell written at epoch e must not read as value 0 ("source") at
        // epoch e+1 — the bug class epoch stamping exists to prevent.
        let (g, q) = fixture();
        let mut s = SearchState::new(g.num_nodes(), &q);
        s.set_hit(2, 0, 0); // node 2 becomes a "source" this epoch
        assert_eq!(s.hit(2, 0), 0);
        s.begin_query(g.num_nodes(), &q);
        let mut row = [0u8; 3];
        s.row_into(2, &mut row);
        assert_eq!(row, [INFINITE_LEVEL; 3], "stale zero must read as ∞, not source");
    }
}

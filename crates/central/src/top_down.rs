//! Stage 2: top-down processing (paper Algorithm 3) — extraction of each
//! Central Graph from the node–keyword matrix, level-cover pruning, Eq. 6
//! scoring, and final top-k selection.
//!
//! Extraction needs no recorded paths: Theorem V.4 lets the hitting paths
//! be recovered from `M` and the activation levels alone. For each keyword
//! `t_i`, `v_n` is a predecessor of `v_j` on a hitting path iff
//!
//! ```text
//! h_j = 1 + max{a_n, h_n}            (v_j contains keywords)
//! h_j = 1 + max{a_n, h_n, a_j − 1}   (v_j contains none)
//! ```
//!
//! because `max{a_n, h_n}` is the first level the neighbor could expand,
//! and a non-keyword `v_j` additionally could not be hit before level
//! `a_j`. Walking these conditions backward from the central node yields,
//! per keyword, exactly the DAG of all hitting paths (Def. 2).

use crate::activation::ActivationMap;
use crate::model::{answer_order, CentralGraph, INFINITE_LEVEL};
use crate::state::HitLevels;
use crate::SearchParams;
use kgraph::{KnowledgeGraph, NodeId};
use std::collections::{HashMap, HashSet};

/// The raw (unpruned) extraction of one Central Graph: per-keyword
/// predecessor DAGs over data-graph nodes.
#[derive(Clone, Debug)]
pub struct Extraction {
    /// The central node.
    pub central: u32,
    /// Depth at identification.
    pub depth: u8,
    /// Per keyword: hitting-path edges as `(pred, succ)` pairs, deduped.
    /// Every edge lies on a hitting path ending at `central`.
    pub dag_edges: Vec<Vec<(u32, u32)>>,
    /// All nodes appearing in any DAG, plus the central node. Sorted.
    pub nodes: Vec<u32>,
}

/// Recover all hitting paths of the Central Graph centered at `central`
/// (Theorem V.4). One backward BFS per keyword.
pub fn extract<H: HitLevels + ?Sized>(
    graph: &KnowledgeGraph,
    act: &ActivationMap<'_>,
    state: &H,
    central: u32,
    depth: u8,
) -> Extraction {
    let q = state.num_keywords();
    let mut dag_edges: Vec<Vec<(u32, u32)>> = Vec::with_capacity(q);
    let mut all_nodes: HashSet<u32> = HashSet::new();
    all_nodes.insert(central);
    for i in 0..q {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut visited: HashSet<u32> = HashSet::new();
        let mut stack: Vec<u32> = vec![central];
        visited.insert(central);
        while let Some(j) = stack.pop() {
            let hj = state.hit(j, i);
            debug_assert_ne!(hj, INFINITE_LEVEL, "extraction reached an unhit node");
            if hj == 0 {
                continue; // a source of B_i: hitting paths start here
            }
            let hj = hj as u16;
            // The `a_j − 1` term applies only to non-keyword nodes.
            let aj_term = if state.is_keyword_node(j) {
                0u16
            } else {
                (act.level(NodeId(j)) as u16).saturating_sub(1)
            };
            for adj in graph.neighbors(NodeId(j)) {
                let n = adj.target().0;
                let hn = state.hit(n, i);
                if hn == INFINITE_LEVEL {
                    continue;
                }
                // A Central Node freezes at its identification depth and
                // never expands afterwards, so it cannot be the
                // predecessor of a hit beyond that depth.
                if let Some(d) = state.central_depth(n) {
                    if hj > d as u16 {
                        continue;
                    }
                }
                let an = act.level(adj.target()) as u16;
                let required = 1 + (hn as u16).max(an).max(aj_term);
                if hj == required {
                    edges.push((n, j));
                    if visited.insert(n) {
                        stack.push(n);
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        for &(a, b) in &edges {
            all_nodes.insert(a);
            all_nodes.insert(b);
        }
        dag_edges.push(edges);
    }
    let mut nodes: Vec<u32> = all_nodes.into_iter().collect();
    nodes.sort_unstable();
    Extraction { central, depth, dag_edges, nodes }
}

/// Apply the **level-cover strategy** (paper Sec. V-C, Fig. 5) and build
/// the final scored answer.
///
/// Keyword nodes of the extracted graph are classified by how many query
/// keywords they contain; the central node always forms the top level.
/// Sweeping levels top-down, once the levels processed so far cover every
/// keyword, all keyword nodes below are pruned together with the hitting
/// paths that exist only to support them. The surviving graph is the union
/// of per-keyword DAG edges forward-reachable from *preserved* sources.
///
/// If pruning would disconnect a keyword (possible when a keyword's only
/// coverage sat on another keyword's pruned path), the unpruned graph is
/// kept — an answer must always cover the query.
pub fn prune_and_score<H: HitLevels + ?Sized>(
    graph: &KnowledgeGraph,
    state: &H,
    extraction: &Extraction,
    params: &SearchParams,
) -> CentralGraph {
    let q = state.num_keywords();
    let central = extraction.central;

    // Classify keyword nodes by contained-keyword count, descending; the
    // central node is its own top level.
    let mut by_count: Vec<(usize, u32)> = extraction
        .nodes
        .iter()
        .filter(|&&v| v != central)
        .map(|&v| (state.keyword_count(v), v))
        .filter(|&(c, _)| c > 0)
        .collect();
    by_count.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    // Greedy cover sweep: central node first, then whole levels until all
    // keywords are covered.
    let mut covered = vec![false; q];
    let mut covered_count = 0usize;
    let cover_node = |v: u32, covered: &mut Vec<bool>, covered_count: &mut usize| {
        for (i, c) in covered.iter_mut().enumerate() {
            if !*c && state.is_source(v, i) {
                *c = true;
                *covered_count += 1;
            }
        }
    };
    cover_node(central, &mut covered, &mut covered_count);
    let mut preserved: HashSet<u32> = HashSet::new();
    preserved.insert(central);
    let mut idx = 0;
    while covered_count < q && idx < by_count.len() {
        let level_count = by_count[idx].0;
        // Take the whole level: nodes are not pruned by same-level peers.
        while idx < by_count.len() && by_count[idx].0 == level_count {
            let v = by_count[idx].1;
            preserved.insert(v);
            cover_node(v, &mut covered, &mut covered_count);
            idx += 1;
        }
    }
    let pruned_any = params.level_cover && idx < by_count.len();

    // Rebuild: per keyword, keep DAG edges forward-reachable from
    // preserved sources.
    let pruned = if pruned_any {
        let mut nodes: HashSet<u32> = HashSet::new();
        nodes.insert(central);
        let mut edges: HashSet<(u32, u32)> = HashSet::new();
        let mut per_keyword: Vec<Vec<(u32, u32)>> = Vec::with_capacity(q);
        for dag in &extraction.dag_edges {
            let mut succ: HashMap<u32, Vec<u32>> = HashMap::new();
            for &(p, s) in dag {
                succ.entry(p).or_default().push(s);
            }
            let mut kept: Vec<(u32, u32)> = Vec::new();
            // Sources of this DAG: predecessors with hitting level 0.
            let mut stack: Vec<u32> = Vec::new();
            let mut seen: HashSet<u32> = HashSet::new();
            for &(p, _) in dag {
                if preserved.contains(&p) && seen.insert(p) {
                    stack.push(p);
                }
            }
            // Forward walk keeps everything downstream of a preserved node;
            // upstream-only support of pruned sources disappears.
            while let Some(v) = stack.pop() {
                nodes.insert(v);
                if let Some(nexts) = succ.get(&v) {
                    for &s in nexts {
                        edges.insert((v.min(s), v.max(s)));
                        kept.push((v.min(s), v.max(s)));
                        nodes.insert(s);
                        if seen.insert(s) {
                            stack.push(s);
                        }
                    }
                }
            }
            kept.sort_unstable();
            kept.dedup();
            per_keyword.push(kept);
        }
        // Soundness check: every keyword must still be covered.
        let all_covered = (0..q).all(|i| nodes.iter().any(|&v| state.is_source(v, i)));
        all_covered.then_some((nodes, edges, per_keyword))
    } else {
        None
    };
    let (final_nodes, final_edges, per_keyword_edges) = match pruned {
        Some(parts) => parts,
        None => (
            full_nodes(extraction),
            full_edges(extraction),
            extraction
                .dag_edges
                .iter()
                .map(|dag| {
                    let mut es: Vec<(u32, u32)> =
                        dag.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
                    es.sort_unstable();
                    es.dedup();
                    es
                })
                .collect(),
        ),
    };

    let mut nodes: Vec<NodeId> = final_nodes.iter().map(|&v| NodeId(v)).collect();
    nodes.sort_unstable();
    let mut edges: Vec<(NodeId, NodeId)> =
        final_edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
    edges.sort_unstable();

    let keyword_nodes: Vec<Vec<NodeId>> = (0..q)
        .map(|i| nodes.iter().copied().filter(|v| state.is_source(v.0, i)).collect())
        .collect();
    let keyword_edges: Vec<Vec<(NodeId, NodeId)>> = per_keyword_edges
        .into_iter()
        .map(|es| es.into_iter().map(|(a, b)| (NodeId(a), NodeId(b))).collect())
        .collect();

    // Eq. 6: S(C) = d(C)^λ · Σ_{v ∈ C} w_v (smaller = better).
    let weight_sum: f64 = nodes.iter().map(|v| graph.weight(*v) as f64).sum();
    let score = (extraction.depth as f64).powf(params.lambda) * weight_sum;

    CentralGraph {
        central: NodeId(central),
        depth: extraction.depth,
        nodes,
        edges,
        keyword_nodes,
        keyword_edges,
        score,
    }
}

fn full_nodes(e: &Extraction) -> HashSet<u32> {
    e.nodes.iter().copied().collect()
}

fn full_edges(e: &Extraction) -> HashSet<(u32, u32)> {
    e.dag_edges.iter().flatten().map(|&(a, b)| (a.min(b), a.max(b))).collect()
}

/// Final selection: sort by Eq. 6 score, remove answers that strictly
/// contain another candidate (repetition removal, Sec. VI-B), truncate to
/// `top_k`.
pub fn select_top_k(mut candidates: Vec<CentralGraph>, params: &SearchParams) -> Vec<CentralGraph> {
    if params.dedup_contained && candidates.len() > 1 {
        // Compare each answer against smaller ones; O(c²) on the candidate
        // set, which Def. 4 already bounds to the smallest-depth cohort.
        // Cap the quadratic work on pathological inputs.
        const DEDUP_CAP: usize = 1024;
        candidates.sort_by(answer_order);
        candidates.truncate(DEDUP_CAP.max(params.top_k * 4));
        let mut by_size: Vec<usize> = (0..candidates.len()).collect();
        by_size.sort_by_key(|&i| candidates[i].nodes.len());
        let mut dropped = vec![false; candidates.len()];
        for pos in (0..by_size.len()).rev() {
            let i = by_size[pos];
            for &j in &by_size[..pos] {
                if !dropped[j] && candidates[i].strictly_contains(&candidates[j]) {
                    dropped[i] = true;
                    break;
                }
            }
        }
        candidates = candidates
            .into_iter()
            .zip(dropped)
            .filter_map(|(c, d)| (!d).then_some(c))
            .collect();
    }
    candidates.sort_by(answer_order);
    candidates.truncate(params.top_k);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom_up::{drive, ExpandCtx, LevelRun};
    use crate::engine::MatrixOps;
    use crate::shard::ShardBackend;
    use crate::state::SearchState;
    use kgraph::GraphBuilder;
    use textindex::{InvertedIndex, ParsedQuery};

    /// End-to-end helper: the sequential two-stage search on a graph with
    /// zero activation levels.
    fn search_all(
        g: &KnowledgeGraph,
        raw: &str,
        params: &SearchParams,
    ) -> (Vec<CentralGraph>, SearchState) {
        let idx = InvertedIndex::build(g);
        let q = ParsedQuery::parse(&idx, raw);
        let state = SearchState::new(g.num_nodes(), &q);
        let activation = vec![0u8; g.num_nodes()];
        let act = ActivationMap::Explicit(&activation);
        let tracker = crate::budget::QueryBudget::unlimited().start();
        let mut frontiers = Vec::new();
        let mut ops = MatrixOps {
            backend: ShardBackend::Seq,
            pool: None,
            ctx: ExpandCtx { graph: g, act: &act, state: &state, budget: &tracker },
            frontiers: &mut frontiers,
        };
        let mut run = LevelRun::new(params, &tracker);
        drive(&mut ops, &mut run).expect("unlimited budget");
        let out = run
            .finish("Seq", g, &state, None, |c, d| extract(g, &act, &state, c, d))
            .expect("unlimited budget");
        (out.answers, state)
    }

    /// Diamond: two disjoint length-2 paths between the keyword endpoints.
    /// Both middles become central; both hitting paths are recovered.
    #[test]
    fn extraction_recovers_multi_paths() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", "alpha");
        let m1 = b.add_node("m1", "mid one");
        let m2 = b.add_node("m2", "mid two");
        let z = b.add_node("z", "omega");
        b.add_edge(a, m1, "e");
        b.add_edge(a, m2, "e");
        b.add_edge(m1, z, "e");
        b.add_edge(m2, z, "e");
        let g = b.build();
        let params = SearchParams::default();
        let (answers, _) = search_all(&g, "alpha omega", &params);
        // m1 and m2 are both central at depth 1.
        assert_eq!(answers.len(), 2);
        for ans in &answers {
            ans.check_invariants().unwrap();
            assert_eq!(ans.depth, 1);
            assert_eq!(ans.num_nodes(), 3); // keyword, middle, keyword
            assert_eq!(ans.num_edges(), 2);
        }
    }

    /// The paper's Fig. 5 scenario: keywords {stanford, jeffrey, ullman}.
    /// "Jeffrey Ullman" covers two keywords, "Stanford University" is the
    /// central node; extra nodes containing only "Jeffrey" hang off the
    /// central node and must be pruned by the level-cover strategy.
    #[test]
    fn level_cover_prunes_single_keyword_satellites() {
        let mut b = GraphBuilder::new();
        let stanford = b.add_node("su", "Stanford University");
        let ullman = b.add_node("ju", "Jeffrey Ullman");
        b.add_edge(ullman, stanford, "employer");
        let mut jeffreys = Vec::new();
        for i in 0..3 {
            let j = b.add_node(&format!("j{i}"), &format!("Jeffrey Satellite{i}"));
            b.add_edge(j, stanford, "affiliation");
            jeffreys.push(j);
        }
        let g = b.build();
        let params = SearchParams::default();
        let (answers, _) = search_all(&g, "stanford jeffrey ullman", &params);
        let best = answers
            .iter()
            .find(|a| a.central == stanford)
            .expect("stanford-centered answer");
        best.check_invariants().unwrap();
        // The three "Jeffrey"-only satellites are pruned: Jeffrey Ullman
        // (2 keywords) already completes coverage.
        assert!(best.contains_node(ullman));
        for j in &jeffreys {
            assert!(!best.contains_node(*j), "satellite {j} should be pruned");
        }
        assert_eq!(best.num_nodes(), 2);
        assert_eq!(best.num_edges(), 1);
    }

    /// Without pruning need (all keyword nodes required), the graph is
    /// untouched.
    #[test]
    fn level_cover_keeps_everything_when_all_needed() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "apple");
        let y = b.add_node("y", "banana");
        let c = b.add_node("c", "hub");
        b.add_edge(x, c, "e");
        b.add_edge(y, c, "e");
        let g = b.build();
        let params = SearchParams::default();
        let (answers, _) = search_all(&g, "apple banana", &params);
        let hub_answer = answers.iter().find(|a| a.central == c).unwrap();
        assert_eq!(hub_answer.num_nodes(), 3);
        assert_eq!(hub_answer.num_edges(), 2);
    }

    /// Ablation: disabling level-cover keeps the redundant satellites.
    #[test]
    fn level_cover_ablation_keeps_satellites() {
        let mut b = GraphBuilder::new();
        let stanford = b.add_node("su", "Stanford University");
        let ullman = b.add_node("ju", "Jeffrey Ullman");
        b.add_edge(ullman, stanford, "employer");
        for i in 0..3 {
            let j = b.add_node(&format!("j{i}"), &format!("Jeffrey Satellite{i}"));
            b.add_edge(j, stanford, "affiliation");
        }
        let g = b.build();
        let pruned_params = SearchParams::default();
        // Disable containment dedup too: the unpruned Stanford answer
        // strictly contains the Ullman-centered one and would be dropped.
        let raw_params =
            SearchParams { level_cover: false, dedup_contained: false, ..SearchParams::default() };
        let (pruned, _) = search_all(&g, "stanford jeffrey ullman", &pruned_params);
        let (raw, _) = search_all(&g, "stanford jeffrey ullman", &raw_params);
        let pruned_su = pruned.iter().find(|a| a.central == stanford).unwrap();
        let raw_su = raw.iter().find(|a| a.central == stanford).unwrap();
        assert_eq!(pruned_su.num_nodes(), 2);
        assert_eq!(raw_su.num_nodes(), 5, "satellites kept without level-cover");
        assert!(raw_su.strictly_contains(pruned_su));
    }

    #[test]
    fn scores_prefer_shallow_low_weight_answers() {
        // Two candidate central structures: a co-occurrence node at depth 0
        // and a depth-1 join — depth 0 scores 0 and ranks first.
        let mut b = GraphBuilder::new();
        let both = b.add_node("b", "apple banana");
        let x = b.add_node("x", "apple");
        let y = b.add_node("y", "banana");
        let c = b.add_node("c", "hub");
        b.add_edge(x, c, "e");
        b.add_edge(y, c, "e");
        b.add_edge(both, c, "e");
        let g = b.build();
        let params = SearchParams::default();
        let (answers, _) = search_all(&g, "apple banana", &params);
        assert!(!answers.is_empty());
        assert_eq!(answers[0].central, both);
        assert_eq!(answers[0].depth, 0);
        assert_eq!(answers[0].score, 0.0);
        for w in answers.windows(2) {
            assert!(w[0].score <= w[1].score, "answers must be score-sorted");
        }
    }

    #[test]
    fn containment_dedup_drops_the_container() {
        let small = CentralGraph {
            central: NodeId(1),
            depth: 1,
            nodes: vec![NodeId(0), NodeId(1)],
            edges: vec![(NodeId(0), NodeId(1))],
            keyword_nodes: vec![vec![NodeId(0)]],
            keyword_edges: vec![vec![(NodeId(0), NodeId(1))]],
            score: 1.0,
        };
        let big = CentralGraph {
            central: NodeId(2),
            depth: 2,
            nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            edges: vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))],
            keyword_nodes: vec![vec![NodeId(0)]],
            keyword_edges: vec![vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]],
            score: 0.5, // better score, but it strictly contains `small`
        };
        let params = SearchParams::default();
        let kept = select_top_k(vec![small.clone(), big], &params);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].central, small.central);

        let no_dedup = SearchParams { dedup_contained: false, ..SearchParams::default() };
        let kept = select_top_k(
            vec![small.clone(), CentralGraph { score: 0.5, ..small.clone() }],
            &no_dedup,
        );
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn select_truncates_to_top_k() {
        let mk = |i: u32, score: f64| CentralGraph {
            central: NodeId(i),
            depth: 1,
            nodes: vec![NodeId(i)],
            edges: vec![],
            keyword_nodes: vec![vec![NodeId(i)]],
            keyword_edges: vec![vec![]],
            score,
        };
        let cands: Vec<_> = (0..10).map(|i| mk(i, i as f64)).collect();
        let params = SearchParams::default().with_top_k(3);
        let kept = select_top_k(cands, &params);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].central, NodeId(0));
    }
}

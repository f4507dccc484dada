//! Criterion benchmarks of full searches: the four Central Graph engines
//! and the BANKS baselines on one synthetic KB, plus the two algorithm
//! stages in isolation (an ablation of the lock-free design: the
//! matrix engines pay extraction in the top-down stage, CPU-Par-d pays
//! locks in the bottom-up stage).

use banks::{BanksI, BanksII, BanksParams};
use central::engine::{DynParEngine, GpuStyleEngine, KeywordSearchEngine, ParCpuEngine, SeqEngine};
use central::SearchParams;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use datagen::synthetic::SyntheticConfig;
use textindex::{InvertedIndex, ParsedQuery};

struct Fixture {
    graph: kgraph::KnowledgeGraph,
    queries: Vec<ParsedQuery>,
    params: SearchParams,
}

fn fixture() -> Fixture {
    let mut cfg = SyntheticConfig::tiny(3);
    cfg.num_entities = 4000;
    let ds = cfg.generate();
    let index = InvertedIndex::build(&ds.graph);
    let mut workload = datagen::QueryWorkload::new(50);
    let queries: Vec<ParsedQuery> =
        workload.batch(6, 4).iter().map(|q| ParsedQuery::parse(&index, q)).collect();
    let a = kgraph::sampling::estimate_average_distance_sources(&ds.graph, 8, 16, 24, 1).mean;
    Fixture {
        graph: ds.graph,
        queries,
        params: SearchParams::default().with_average_distance(a),
    }
}

fn bench_engines(c: &mut Criterion) {
    let f = fixture();
    let mut g = c.benchmark_group("search_4k_nodes_knum6");
    let engines: Vec<Box<dyn KeywordSearchEngine>> = vec![
        Box::new(SeqEngine::new()),
        Box::new(ParCpuEngine::new(4)),
        Box::new(GpuStyleEngine::new(4)),
        Box::new(DynParEngine::new(4)),
    ];
    for e in &engines {
        g.bench_function(e.name(), |b| {
            b.iter(|| {
                for q in &f.queries {
                    black_box(e.search(&f.graph, q, &f.params));
                }
            })
        });
    }
    let banks_params = BanksParams::default().with_node_budget(100_000);
    g.bench_function("BANKS-I", |b| {
        let e = BanksI::new();
        b.iter(|| {
            for q in &f.queries {
                black_box(e.search(&f.graph, q, &banks_params));
            }
        })
    });
    g.bench_function("BANKS-II", |b| {
        let e = BanksII::new();
        b.iter(|| {
            for q in &f.queries {
                black_box(e.search(&f.graph, q, &banks_params));
            }
        })
    });
    g.finish();
}

fn bench_alpha_ablation(c: &mut Criterion) {
    // Ablation: how α (and with it, how early summary hubs open up)
    // changes total search work (the mechanism behind Exp-3).
    let f = fixture();
    let mut g = c.benchmark_group("alpha_ablation");
    let engine = SeqEngine::new();
    for alpha in [0.05f32, 0.4] {
        let params = f.params.clone().with_alpha(alpha);
        g.bench_function(format!("alpha_{alpha}"), |b| {
            b.iter(|| {
                for q in &f.queries {
                    black_box(engine.search(&f.graph, q, &params));
                }
            })
        });
    }
    g.finish();
}

fn bench_level_cover_ablation(c: &mut Criterion) {
    // Ablation: the level-cover pruning stage (Sec. V-C) on vs off.
    let f = fixture();
    let mut g = c.benchmark_group("level_cover_ablation");
    let engine = SeqEngine::new();
    for cover in [true, false] {
        let params = SearchParams { level_cover: cover, ..f.params.clone() };
        g.bench_function(format!("level_cover_{cover}"), |b| {
            b.iter(|| {
                for q in &f.queries {
                    black_box(engine.search(&f.graph, q, &params));
                }
            })
        });
    }
    g.finish();
}

fn bench_enqueue_strategies(c: &mut Criterion) {
    // The paper's CPU finding: sequential frontier enqueue beats parallel
    // compaction on CPU (Sec. V-B, "Enqueuing frontiers").
    use central::bottom_up::{enqueue_parallel_compaction, enqueue_sequential};
    use central::state::SearchState;
    let f = fixture();
    let index = InvertedIndex::build(&f.graph);
    let q = ParsedQuery::parse(&index, "machine learning");
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let mut g = c.benchmark_group("enqueue");
    g.bench_function("sequential_scan", |b| {
        let state = SearchState::new(f.graph.num_nodes(), &q);
        let mut out = Vec::new();
        b.iter(|| {
            // re-arm a spread of frontier flags, then drain
            for v in (0..f.graph.num_nodes() as u32).step_by(7) {
                state.mark_frontier(v);
            }
            enqueue_sequential(&state, &mut out);
            black_box(out.len())
        })
    });
    g.bench_function("parallel_compaction", |b| {
        let state = SearchState::new(f.graph.num_nodes(), &q);
        let mut out = Vec::new();
        b.iter(|| {
            for v in (0..f.graph.num_nodes() as u32).step_by(7) {
                state.mark_frontier(v);
            }
            enqueue_parallel_compaction(&pool, &state, &mut out, 4096);
            black_box(out.len())
        })
    });
    g.finish();
}

fn bench_dedup_ablation(c: &mut Criterion) {
    // Ablation: the containment-dedup pass of the final selection.
    let f = fixture();
    let mut g = c.benchmark_group("dedup_ablation");
    let engine = SeqEngine::new();
    for dedup in [true, false] {
        let params = SearchParams { dedup_contained: dedup, ..f.params.clone() };
        g.bench_function(format!("dedup_{dedup}"), |b| {
            b.iter(|| {
                for q in &f.queries {
                    black_box(engine.search(&f.graph, q, &params));
                }
            })
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_engines, bench_alpha_ablation, bench_dedup_ablation,
        bench_level_cover_ablation, bench_enqueue_strategies
}
criterion_main!(benches);

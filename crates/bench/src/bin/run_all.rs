//! Runs every experiment of the paper's evaluation section in sequence.
use wikisearch_bench::experiments as exp;

fn main() {
    exp::table2_datasets::run();
    exp::fig3_activation::run();
    exp::table4_storage::run();
    exp::exp1_knum::run();
    exp::exp2_topk::run();
    exp::exp3_alpha::run();
    exp::exp4_threads::run();
    exp::effectiveness::run();
    // Appendix experiments (the paper's excluded-competitor arguments).
    exp::blinks_cost::run();
    exp::rclique_sensitivity::run();
    exp::gpu_projection::run();
    println!("All experiments complete. JSON records in target/experiments/.");
}

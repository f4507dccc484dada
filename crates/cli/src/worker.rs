//! `wikisearch shard-worker` — one remote shard worker process.
//!
//! A worker owns one partition of the deterministic edge-cut shard plan
//! (`central::shard::ShardPlan`) over the full dataset and serves the
//! coordinator's length-prefixed frame protocol (`central::remote`) on
//! a loopback TCP listener. Both ends load the same dataset and derive
//! the same plan from the fixed seed, so sub-graphs never travel over
//! the wire and the handshake only has to verify that the contracts
//! (shard count, node count, seed, protocol version) agree.
//!
//! Once the listener is bound the worker prints exactly one
//! `READY <addr> …` line to stdout — its parent learns both that the
//! worker is up and which ephemeral port it got (`--port 0`). With
//! `--watch-stdin true` the worker exits as soon as its stdin reaches
//! EOF: the supervisor (`serve --shard-workers N`) holds the write end
//! of that pipe, so a supervisor that dies — gracefully or not — can
//! never leak workers.

use crate::args::ParsedArgs;
use central::shard::DEFAULT_PARTITION_SEED;
use central::ShardWorker;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;

/// `wikisearch shard-worker`: serve one shard of `--shards N` forever
/// (or until stdin EOF under `--watch-stdin true`).
pub fn shard_worker(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.allow_only(&["graph", "mmap", "shards", "shard-index", "port", "watch-stdin"])?;
    let shards: usize = args.get_or("shards", 0)?;
    if shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    let index: usize = args
        .required("shard-index")?
        .parse()
        .map_err(|_| "--shard-index: expected a shard number".to_string())?;
    if index >= shards {
        return Err(format!("--shard-index {index} out of range for --shards {shards}"));
    }
    let port: u16 = args.get_or("port", 0)?;
    let watch_stdin: bool = args.get_or("watch-stdin", false)?;

    // Load the full graph (a `--mmap` snapshot through its graph
    // sections) and cut this worker's partition out of it; the graph is
    // dropped right after — the partition is owned. A worker needs no
    // inverted index and no average distance: the coordinator resolves
    // keywords and parameters.
    let (path, _) = crate::commands::graph_source(args)?;
    let graph = crate::commands::read_graph(path)?;
    let worker = Arc::new(ShardWorker::new(&graph, shards, index, DEFAULT_PARTITION_SEED));
    drop(graph);

    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    writeln!(out, "READY {addr} shard {index}/{shards} owned {}", worker.num_owned())
        .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    if watch_stdin {
        // Supervision leash: stdin EOF means whoever spawned us is gone.
        std::thread::Builder::new()
            .name("stdin-watchdog".into())
            .spawn(|| {
                let mut sink = [0u8; 256];
                let mut stdin = std::io::stdin();
                loop {
                    match stdin.read(&mut sink) {
                        Ok(0) | Err(_) => std::process::exit(0),
                        Ok(_) => {}
                    }
                }
            })
            .map_err(|e| format!("spawning the stdin watchdog: {e}"))?;
    }

    worker.serve(listener);
    Ok(())
}

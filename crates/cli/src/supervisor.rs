//! The worker-fleet supervisor behind `serve --shard-workers N`.
//!
//! Spawns one `wikisearch shard-worker` process per shard over the same
//! dataset the server loaded, babysits them — a monitor thread sweeps
//! the fleet with `try_wait`, respawning any worker that died and
//! bumping that shard's *generation* so the coordinator discards
//! connections dialed to the previous incarnation — and reaps the whole
//! fleet on drop. Two belts against orphaned processes:
//!
//! * the supervisor kills and `wait()`s every child when it drops
//!   (normal drain and error paths alike), and
//! * each worker runs with `--watch-stdin true` on a pipe whose write
//!   end the supervisor holds, so even a SIGKILLed server leaves
//!   workers that exit on their own at stdin EOF.
//!
//! The fleet's address table implements [`ShardAddrs`], which is how
//! the remote coordinator (`central::remote`) sees respawns: a dead
//! shard's `addr()` turns `None` (breaker-visible), a respawned one
//! comes back on a fresh ephemeral port under a bumped generation.

use central::ShardAddrs;
use parking_lot::Mutex;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often the monitor sweeps the fleet for dead workers.
const MONITOR_POLL: Duration = Duration::from_millis(50);

/// How long a spawned worker gets to print its `READY` line (covers
/// loading the dataset and cutting its partition).
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// One worker slot: the live child, its current address, and its
/// incarnation counter.
struct Slot {
    /// The live child process. Holding it keeps the write end of its
    /// stdin pipe open — dropping (or killing) it is the worker's
    /// signal to exit.
    child: Mutex<Option<Child>>,
    /// Current listener address; `None` while the worker is down.
    addr: Mutex<Option<SocketAddr>>,
    /// Bumped on every respawn.
    generation: AtomicU64,
}

/// The fleet's live address table, shared with the remote coordinator.
struct Fleet {
    slots: Vec<Slot>,
    respawns: AtomicU64,
}

impl ShardAddrs for Fleet {
    fn addr(&self, shard: usize) -> Option<SocketAddr> {
        self.slots.get(shard).and_then(|s| *s.addr.lock())
    }

    fn generation(&self, shard: usize) -> u64 {
        self.slots.get(shard).map_or(0, |s| s.generation.load(Ordering::SeqCst))
    }
}

/// Everything needed to (re)spawn one worker: the binary and the
/// graph-source flag pair, identical across the fleet.
#[derive(Clone)]
struct Spec {
    /// This very executable (`wikisearch`).
    bin: PathBuf,
    /// `("--graph", path)` or `("--mmap", path)`.
    source: (String, String),
    shards: usize,
}

/// Spawn one `shard-worker` process and wait (bounded) for its
/// `READY <addr> …` line. On any failure the child is killed and
/// reaped before the error returns.
fn spawn_worker(spec: &Spec, index: usize) -> Result<(Child, SocketAddr), String> {
    let mut child = Command::new(&spec.bin)
        .arg("shard-worker")
        .arg(&spec.source.0)
        .arg(&spec.source.1)
        .arg("--shards")
        .arg(spec.shards.to_string())
        .arg("--shard-index")
        .arg(index.to_string())
        .arg("--port")
        .arg("0")
        .arg("--watch-stdin")
        .arg("true")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn shard-worker {index}: {e}"))?;
    let fail = |mut child: Child, msg: String| -> Result<(Child, SocketAddr), String> {
        let _ = child.kill();
        let _ = child.wait();
        Err(msg)
    };
    let Some(stdout) = child.stdout.take() else {
        return fail(child, format!("shard-worker {index}: stdout not captured"));
    };
    // The READY read happens on a helper thread so the wait can be
    // bounded; afterwards the thread keeps draining stdout so the
    // worker can never block on a full pipe.
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    std::thread::Builder::new()
        .name(format!("shard-worker-{index}-stdout"))
        .spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            let _ = tx.send(line);
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        })
        .map_err(|e| format!("spawning the shard-worker {index} stdout reader: {e}"))?;
    let line = match rx.recv_timeout(READY_TIMEOUT) {
        Ok(line) => line,
        Err(_) => {
            return fail(
                child,
                format!("shard-worker {index}: no READY line within {READY_TIMEOUT:?}"),
            )
        }
    };
    let addr = line
        .strip_prefix("READY ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse::<SocketAddr>().ok());
    match addr {
        Some(addr) => Ok((child, addr)),
        None => fail(
            child,
            format!("shard-worker {index}: expected `READY <addr>`, got {:?}", line.trim()),
        ),
    }
}

/// A supervised fleet of `shard-worker` processes: spawn-on-launch,
/// respawn-on-death, reap-on-drop.
pub struct Supervisor {
    fleet: Arc<Fleet>,
    stop: Arc<AtomicBool>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Spawn `shards` workers over the graph source in `(flag, path)`
    /// form (`("--graph", …)` or `("--mmap", …)`) and start the
    /// monitor. Any worker failing to come up tears the whole launch
    /// down — no half-fleets, no leaked processes.
    pub fn launch(source: (String, String), shards: usize) -> Result<Supervisor, String> {
        let bin = std::env::current_exe()
            .map_err(|e| format!("cannot locate the wikisearch binary: {e}"))?;
        let spec = Spec { bin, source, shards };
        let fleet = Arc::new(Fleet {
            slots: (0..shards)
                .map(|_| Slot {
                    child: Mutex::new(None),
                    addr: Mutex::new(None),
                    generation: AtomicU64::new(0),
                })
                .collect(),
            respawns: AtomicU64::new(0),
        });
        for i in 0..shards {
            match spawn_worker(&spec, i) {
                Ok((child, addr)) => {
                    *fleet.slots[i].child.lock() = Some(child);
                    *fleet.slots[i].addr.lock() = Some(addr);
                }
                Err(e) => {
                    reap_fleet(&fleet);
                    return Err(e);
                }
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let monitor = {
            let fleet = Arc::clone(&fleet);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("shard-supervisor".into())
                .spawn(move || monitor_fleet(&fleet, &stop, &spec))
                .map_err(|e| format!("spawning the fleet monitor: {e}"))?
        };
        Ok(Supervisor { fleet, stop, monitor: Some(monitor) })
    }

    /// The fleet's live address table, for
    /// `WikiSearch::set_remote_shards`.
    pub fn addrs(&self) -> Arc<dyn ShardAddrs> {
        Arc::clone(&self.fleet) as Arc<dyn ShardAddrs>
    }

    /// PIDs of the currently live workers (a respawning slot is
    /// momentarily absent).
    pub fn pids(&self) -> Vec<u32> {
        self.fleet
            .slots
            .iter()
            .filter_map(|s| s.child.lock().as_ref().map(Child::id))
            .collect()
    }

    /// Workers respawned since launch.
    pub fn respawns(&self) -> u64 {
        self.fleet.respawns.load(Ordering::SeqCst)
    }
}

/// The monitor loop: sweep for dead children, respawn them under a
/// bumped generation.
fn monitor_fleet(fleet: &Fleet, stop: &AtomicBool, spec: &Spec) {
    while !stop.load(Ordering::SeqCst) {
        for (i, slot) in fleet.slots.iter().enumerate() {
            let died = {
                let mut guard = slot.child.lock();
                match guard.as_mut() {
                    Some(child) => match child.try_wait() {
                        Ok(Some(_status)) => {
                            // Reaped by try_wait; the slot is empty until
                            // the respawn lands.
                            *guard = None;
                            true
                        }
                        Ok(None) => false,
                        Err(_) => false,
                    },
                    None => true,
                }
            };
            if !died || stop.load(Ordering::SeqCst) {
                continue;
            }
            // Down: the coordinator sees `addr() == None` while the
            // replacement boots.
            *slot.addr.lock() = None;
            if let Ok((child, addr)) = spawn_worker(spec, i) {
                *slot.child.lock() = Some(child);
                slot.generation.fetch_add(1, Ordering::SeqCst);
                *slot.addr.lock() = Some(addr);
                fleet.respawns.fetch_add(1, Ordering::SeqCst);
            }
        }
        std::thread::sleep(MONITOR_POLL);
    }
}

/// Kill and `wait()` every live child: no zombies, no orphans.
fn reap_fleet(fleet: &Fleet) {
    for slot in &fleet.slots {
        if let Some(mut child) = slot.child.lock().take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        *slot.addr.lock() = None;
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        reap_fleet(&self.fleet);
    }
}

//! Process ownership and `/proc` accounting.
//!
//! The harness owns every process it starts. A [`Server`] is killed and
//! reaped when it is stopped or dropped (normal exit, error return and
//! panic unwinding alike), and each server also gets a *guard* — a tiny
//! `sh` child blocked reading a pipe whose write end only the harness
//! holds. If the harness dies without unwinding (SIGKILL, SIGTERM,
//! Ctrl-C) the pipe closes and the guard kills the server; the server's
//! shard workers watch their own stdin the same way, so nothing is left
//! spinning behind a vanished client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a spawned server gets to print its banner and answer the
/// first `PING` (covers loading the dataset and rebuilding the index).
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long stopped servers' shard workers get to notice stdin EOF and
/// exit before they are killed by pid.
const WORKER_EXIT_TIMEOUT: Duration = Duration::from_secs(5);

/// A live `wikisearch serve` subprocess on an ephemeral port.
pub struct Server {
    child: Option<Child>,
    guard: Option<Child>,
    /// The ephemeral port parsed from the banner.
    pub port: u16,
    /// Spawn → first `PONG`.
    pub ready: Duration,
}

impl Server {
    /// Spawn `bin serve --port 0 <flags>`, parse the port from the
    /// banner and wait for the first `PONG`.
    pub fn spawn(bin: &Path, flags: &[String]) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--port", "0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let guard = spawn_guard(child.id());
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = Server { child: Some(child), guard, port: 0, ready: Duration::ZERO };
        // The banner read is bounded by a helper thread, which afterwards
        // keeps draining stdout so the server can never block on a full
        // pipe. It ends at the server's EOF, i.e. when the server is
        // reaped, so it needs no join.
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            let _ = tx.send(line);
            let mut sink = [0u8; 4096];
            while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
        });
        let banner = rx
            .recv_timeout(READY_TIMEOUT)
            .map_err(|_| format!("no banner from `serve` within {READY_TIMEOUT:?}"))?;
        server.port = parse_banner_port(&banner)
            .ok_or_else(|| format!("unexpected `serve` banner: {:?}", banner.trim()))?;
        let mut probe = TcpStream::connect(("127.0.0.1", server.port))
            .map_err(|e| format!("connect 127.0.0.1:{}: {e}", server.port))?;
        probe.set_read_timeout(Some(READY_TIMEOUT)).map_err(|e| e.to_string())?;
        probe.write_all(b"PING\nQUIT\n").map_err(|e| e.to_string())?;
        let mut pong = String::new();
        BufReader::new(&probe)
            .read_line(&mut pong)
            .map_err(|e| format!("first PING: {e}"))?;
        if pong.trim() != "PONG" {
            return Err(format!("first PING answered {:?}", pong.trim()));
        }
        server.ready = started.elapsed();
        Ok(server)
    }

    /// The server's pid.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// The server and its live children (shard workers), server first.
    pub fn family(&self) -> Vec<u32> {
        let pid = self.pid();
        let mut all = vec![pid];
        all.extend(children_of(pid));
        all
    }

    /// Kill and reap the server, then wait until its shard workers are
    /// gone too (killing by pid any that outlive the grace period).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let workers = children_of(child.id());
        let _ = child.kill();
        let _ = child.wait();
        // Workers exit on their own at stdin EOF; they are the server's
        // children, not ours, so "gone" means no longer running in /proc.
        let deadline = Instant::now() + WORKER_EXIT_TIMEOUT;
        let mut left: Vec<u32> = workers;
        while !left.is_empty() {
            left.retain(|&pid| is_running(pid));
            if left.is_empty() {
                break;
            }
            if Instant::now() >= deadline {
                for pid in &left {
                    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // The guard's job is over: closing its stdin makes it run its
        // kill against the reaped pid (a no-op) and exit.
        if let Some(mut guard) = self.guard.take() {
            drop(guard.stdin.take());
            let _ = guard.wait();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dead-man's switch for `pid`: `sh` blocks in `cat` on a pipe from
/// the harness and kills `pid` when the pipe closes. `None` when `sh`
/// cannot be spawned — the Drop path still covers every orderly exit.
fn spawn_guard(pid: u32) -> Option<Child> {
    Command::new("sh")
        .arg("-c")
        .arg(format!("cat >/dev/null; kill -9 {pid} 2>/dev/null"))
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .ok()
}

/// The port out of `wikisearch serving on 127.0.0.1:<port> (...)`.
pub fn parse_banner_port(banner: &str) -> Option<u16> {
    let rest = banner.split("127.0.0.1:").nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Fields of `/proc/<pid>/stat` after the parenthesised command name
/// (which may itself contain spaces and parentheses), 0-based from the
/// state letter.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(String::from).collect())
}

/// `true` while `pid` exists and is not a zombie.
pub fn is_running(pid: u32) -> bool {
    stat_fields(pid).is_some_and(|f| f.first().is_some_and(|s| s != "Z" && s != "X"))
}

/// Live (non-zombie) processes whose parent is `parent`.
pub fn children_of(parent: u32) -> Vec<u32> {
    let mut out = Vec::new();
    for pid in all_pids() {
        if let Some(f) = stat_fields(pid) {
            let alive = f.first().is_some_and(|s| s != "Z" && s != "X");
            if alive && f.get(1).and_then(|p| p.parse::<u32>().ok()) == Some(parent) {
                out.push(pid);
            }
        }
    }
    out.sort_unstable();
    out
}

fn all_pids() -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .collect()
}

/// Live processes running the executable `bin` as `serve` or
/// `shard-worker` — survivors of an earlier run of this checkout.
pub fn stale_servers(bin: &Path) -> Vec<u32> {
    let Ok(wanted) = bin.canonicalize() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for pid in all_pids() {
        if !is_running(pid) {
            continue;
        }
        let exe: Option<PathBuf> = std::fs::read_link(format!("/proc/{pid}/exe")).ok();
        if exe.as_deref() != Some(wanted.as_path()) {
            continue;
        }
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        let verb = cmdline.split(|&b| b == 0).nth(1).unwrap_or_default();
        if verb == b"serve" || verb == b"shard-worker" {
            out.push(pid);
        }
    }
    out
}

/// CPU time and memory of one process, read from `/proc`.
///
/// The times are the process-wide `utime`/`stime` counters: they keep
/// the time of threads that have already exited (the per-thread
/// `schedstat` files do not), and the kernel derives them from its
/// precise run-time sum, so only the 10 ms reporting step is coarse —
/// under 2 % of the CPU any workload burns in half a window. (Shorter
/// stretches are metered with [`cpu_clock_ns`].)
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcUsage {
    /// User-mode time in ns.
    pub user_ns: u64,
    /// Kernel-mode time in ns.
    pub sys_ns: u64,
    /// Peak resident set (`VmHWM`) in KiB.
    pub hwm_kib: u64,
}

impl ProcUsage {
    /// User + kernel time in ns.
    pub fn cpu_ns(&self) -> u64 {
        self.user_ns + self.sys_ns
    }
}

/// Nanoseconds per clock tick: `USER_HZ` is 100 on every Linux ABI.
const TICK_NS: u64 = 10_000_000;

/// Read one process's usage; all zero when it is gone.
pub fn usage(pid: u32) -> ProcUsage {
    let mut u = ProcUsage::default();
    if let Some(f) = stat_fields(pid) {
        // utime and stime are fields 14 and 15 of the full line, i.e.
        // 11 and 12 counting from the state letter.
        let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        u.user_ns = tick(11) * TICK_NS;
        u.sys_ns = tick(12) * TICK_NS;
    }
    if let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) {
        u.hwm_kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or(0);
    }
    u
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    // Provided by the C library `std` already links against.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time `pid` has consumed so far, in ns, from the kernel's
/// per-process CPU-time clock (what `clock_getcpuclockid(3)` names):
/// every thread of the process, exited ones included, at scheduler
/// precision. This is the figure `utime + stime` in `/proc/<pid>/stat`
/// rounds to 10 ms steps; a segment of a window burns too little CPU for
/// those steps. `None` when the process is gone.
pub fn cpu_clock_ns(pid: u32) -> Option<u64> {
    // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED): the complemented pid
    // above a three-bit clock type.
    let clock_id = (!(pid as i32) << 3) | 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec`; the call reads nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    (rc == 0).then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

/// CPU time of a set of processes, in ns (a process that is gone counts
/// as zero, as in [`usage`]).
pub fn cpu_clock_sum_ns(pids: &[u32]) -> u64 {
    pids.iter().filter_map(|&pid| cpu_clock_ns(pid)).sum()
}

/// Host facts recorded next to every committed result.
pub fn host_descriptor() -> Vec<(String, String)> {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("kernel".into(), run("uname", &["-sr"])),
        ("rustc".into(), run("rustc", &["--version"])),
        ("commit".into(), run("git", &["rev-parse", "--short", "HEAD"])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_port_is_parsed() {
        let banner = "wikisearch serving on 127.0.0.1:43365 (120250 nodes indexed, 2 workers)\n";
        assert_eq!(parse_banner_port(banner), Some(43365));
        assert_eq!(parse_banner_port("error: bind 127.0.0.1:x"), None);
        assert_eq!(parse_banner_port("error: missing required flag --graph"), None);
    }

    #[test]
    fn own_process_is_visible_in_proc() {
        let me = std::process::id();
        assert!(is_running(me));
        let u = usage(me);
        assert!(u.hwm_kib > 0, "{u:?}");
        assert!(!is_running(u32::MAX - 1));
        assert_eq!(usage(u32::MAX - 1).cpu_ns(), 0);
    }

    #[test]
    fn cpu_clock_counts_what_a_process_burns() {
        let me = std::process::id();
        let before = cpu_clock_ns(me).expect("own process has a CPU clock");
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let burnt = cpu_clock_ns(me).unwrap() - before;
        assert!(burnt >= 20_000_000, "30 ms of spinning shows as CPU time: {burnt} ns");
        assert_eq!(cpu_clock_ns(u32::MAX - 1), None, "no such process");
        assert_eq!(cpu_clock_sum_ns(&[u32::MAX - 1]), 0);
    }

    #[test]
    fn guard_kills_its_target_when_the_pipe_closes() {
        let mut victim = Command::new("sleep").arg("30").spawn().unwrap();
        let mut guard = spawn_guard(victim.id()).expect("sh is available");
        assert!(is_running(victim.id()));
        drop(guard.stdin.take());
        guard.wait().unwrap();
        let status = victim.wait().unwrap();
        assert!(!status.success(), "killed by the guard, not exited: {status:?}");
    }
}

//! The server under test as a **child process**, so its CPU time and
//! resident set are its own and not mixed with the load generator's.
//!
//! Both guards clean up in `Drop`, which runs on every exit path including
//! a panic: the child is killed and reaped, the scratch directory removed.

use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, SystemTime};

/// Admission control must never bind: a faster server would otherwise be
/// rate-limited and the benchmark would measure the token bucket.
const TENANT_STEPS: &str = "1000000000000000";

/// How long the child may take to print its address.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// Where the benchmark's files live: `<target>/nestbench/`, next to the
/// `release/` directory holding this executable and `nestdb`.
pub struct Env {
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
}

impl Env {
    pub fn locate() -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
        let bin_dir = exe.parent().ok_or("executable has no directory")?;
        let server_bin = bin_dir.join("nestdb");
        if !server_bin.is_file() {
            return Err(format!(
                "{} not found: build it first (`cargo build --release --bin nestdb`, or use nestbench/run.sh)",
                server_bin.display()
            ));
        }
        let out_dir = bin_dir.parent().unwrap_or(bin_dir).join("nestbench");
        fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        Ok(Env {
            server_bin,
            out_dir,
        })
    }

    /// Seconds since the epoch at which the server binary was built — a
    /// stale binary is then visible in the output.
    pub fn server_mtime(&self) -> u64 {
        fs::metadata(&self.server_bin)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_secs())
    }
}

/// A per-run scratch directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(env: &Env, label: &str) -> Result<Scratch, String> {
        let dir = env.out_dir.join(format!("{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A running `nestdb serve` child.
pub struct Server {
    child: Child,
    /// Drains the child's stdout; ends when the child does.
    stdout_reader: Option<std::thread::JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn `nestdb serve --addr 127.0.0.1:0 [--db <db>]` and wait for its
    /// `nestdb serving on <addr>` line.
    pub fn spawn(env: &Env, db: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(&env.server_bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--tenant-steps", TENANT_STEPS])
            .args(["--tenant-refill", TENANT_STEPS]);
        if let Some(db) = db {
            cmd.arg("--db").arg(db);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", env.server_bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // the address arrives on a helper thread so a server that never
        // prints it times out instead of blocking the run; the thread then
        // drains the pipe until the child exits
        let (tx, rx) = mpsc::channel();
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("nestdb serving on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = Server {
            child,
            stdout_reader: Some(stdout_reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "the server never printed its address".to_string())?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("bad server address {addr:?}: {e}"))?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU time the child has used, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the line
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (tick(11), tick(12)) {
            (Some(u), Some(s)) => Ok((u + s) * 1000.0 / CLOCK_TICKS_PER_SECOND),
            _ => Err(format!("{path}: cannot read utime/stime")),
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// `SIGKILL` the child and reap it — the crash the recovery checks
    /// start from, and the normal way a run ends.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `sysconf(_SC_CLK_TCK)` without libc: Linux has reported 100 to user
/// space on every architecture since 2.6 (`USER_HZ`).
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

//! The system under test as a child process: `lcdc serve` on an
//! ephemeral port, shut down gracefully, killed if anything goes wrong.

use lcdc::store::Client;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How the server's segment caches are sized (`--cache`, in segments
/// per shard column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    /// At least every segment of a shard column: resident after warm-up.
    Fits,
    /// Far below the ~64 segments per shard column: scans must re-read.
    Tiny,
}

impl Cache {
    pub fn segments(self) -> usize {
        match self {
            Cache::Fits => crate::data::LINEITEM_ROWS / crate::data::SEG_ROWS,
            Cache::Tiny => 8,
        }
    }
}

/// Worker threads of the server's shared pool, and connections of the
/// closed-loop generator: never more than the host's two cores.
pub const SERVER_THREADS: usize = 2;

/// A running `lcdc serve` child. Dropping it kills the child, so a
/// harness panic never leaves a server behind.
pub struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Start `lcdc serve <dir> --addr 127.0.0.1:0 --threads 2 --lazy
    /// --cache N` and wait for its `listening on` line.
    pub fn spawn(lcdc: &Path, dir: &Path, cache: Cache) -> Result<ServerProc, String> {
        let log = std::fs::File::create(dir.join("serve.log")).map_err(|e| e.to_string())?;
        let mut child = Command::new(lcdc)
            .arg("serve")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--lazy"])
            .args(["--threads", &SERVER_THREADS.to_string()])
            .args(["--cache", &cache.segments().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", lcdc.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        // From here on the guard owns the child: any early return kills it.
        let mut server = ServerProc {
            child,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => server.addr = addr.to_string(),
            _ => {
                let log = std::fs::read_to_string(dir.join("serve.log")).unwrap_or_default();
                return Err(format!("lcdc serve did not come up: {line:?}\n{log}"));
            }
        }
        Ok(server)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The child's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Graceful stop: a wire `Shutdown`, then wait for the drain. A
    /// server that has not exited within ten seconds is killed and
    /// reported.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown request: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("lcdc serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("lcdc serve ignored shutdown; killed".into()),
                Err(e) => return Err(format!("waiting for lcdc serve: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // A no-op after a clean exit; errors cannot be reported from here.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

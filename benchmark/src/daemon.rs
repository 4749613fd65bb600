//! The real `joinmi_serve` process: spawned with default flags over the
//! generated shard files, driven through `joinmi_serve::http::client_request`,
//! and always stopped and waited for.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use joinmi_serve::json::Json;
use joinmi_serve::{client_request, wait_healthy};

/// Environment variable naming the daemon binary; `run.sh` sets it.
pub const SERVE_BIN_ENV: &str = "JOINMI_SERVE_BIN";

/// The daemon binary: `$JOINMI_SERVE_BIN`, else `joinmi_serve` beside this
/// executable (both are built into one target directory).
pub fn serve_bin() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var(SERVE_BIN_ENV) {
        return Ok(PathBuf::from(path));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // Test executables live one level down, in `deps/`.
    exe.ancestors()
        .skip(1)
        .take(2)
        .map(|dir| dir.join("joinmi_serve"))
        .find(|candidate| candidate.is_file())
        .ok_or_else(|| {
            format!("no joinmi_serve binary: set {SERVE_BIN_ENV} or run through benchmark/run.sh")
        })
}

/// A running daemon. Dropping it kills the process and waits for it.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stderr: Option<std::thread::JoinHandle<()>>,
    /// `host:port` the daemon listens on.
    pub addr: String,
    /// Spawn → first 200 from `/v1/healthz`, ms.
    pub ready_ms: f64,
}

impl Daemon {
    /// Spawns the daemon over `shards` with every flag at its default (only
    /// the port is left to the kernel) and waits until it is healthy.
    pub fn spawn(bin: &Path, shards: &[PathBuf]) -> Result<Self, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(shards)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut addr = None;
        let mut line = String::new();
        while reader.read_line(&mut line).map_err(|e| e.to_string())? > 0 {
            if let Some(rest) = line
                .trim()
                .strip_prefix("joinmi_serve: listening on http://")
            {
                addr = Some(rest.to_owned());
                break;
            }
            line.clear();
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon exited before announcing its address".to_owned());
        };
        // Keep draining stderr so the daemon can never block on a full pipe.
        let stderr = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        let mut daemon = Self {
            child,
            stderr: Some(stderr),
            addr,
            ready_ms: 0.0,
        };
        wait_healthy(&daemon.addr, Duration::from_secs(30)).map_err(|e| e.to_string())?;
        daemon.ready_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(daemon)
    }

    /// The daemon's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET /v1/shards`, parsed.
    pub fn shards_info(&self) -> Result<Json, String> {
        let (status, body) =
            client_request(&self.addr, "GET", "/v1/shards", "").map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("/v1/shards answered {status}"));
        }
        Json::parse(&body).map_err(|e| e.to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

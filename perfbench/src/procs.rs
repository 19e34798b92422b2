//! Child processes under test: spawn, readiness, peak RSS, and a global
//! registry so that every exit path (normal return, panic unwind, the
//! wall-clock watchdog) kills and reaps them.

use crate::client::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

type Shared = Arc<Mutex<Child>>;

static LIVE: Mutex<Vec<Shared>> = Mutex::new(Vec::new());

fn live() -> MutexGuard<'static, Vec<Shared>> {
    // The list only ever holds handles; a panic elsewhere cannot leave
    // it half-updated.
    LIVE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Kills and reaps every registered child. Safe to call from any thread.
pub fn kill_all() {
    let children: Vec<Shared> = live().drain(..).collect();
    for child in children {
        let mut c = child.lock().unwrap_or_else(|p| p.into_inner());
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// A registered child: killed and reaped on drop.
#[derive(Debug)]
pub struct Proc {
    child: Shared,
    /// The OS pid.
    pub pid: u32,
    /// The executable's file name, as procfs reports it.
    pub name: String,
}

impl Proc {
    /// Spawns `cmd` and registers it.
    pub fn spawn(mut cmd: Command) -> Result<Proc, String> {
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning {:?}: {e}", cmd.get_program()))?;
        let pid = child.id();
        let name = Path::new(cmd.get_program())
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let child = Arc::new(Mutex::new(child));
        live().push(Arc::clone(&child));
        Ok(Proc { child, pid, name })
    }

    /// Takes the child's piped stdout.
    pub fn take_stdout(&self) -> Option<ChildStdout> {
        self.lock().stdout.take()
    }

    fn lock(&self) -> MutexGuard<'_, Child> {
        self.child.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Waits for the child to exit on its own; `true` on exit status 0.
    /// Polls, so the watchdog can still take the lock and kill it.
    pub fn wait_success(&self) -> Result<bool, String> {
        loop {
            match self.lock().try_wait() {
                Ok(Some(status)) => return Ok(status.success()),
                Ok(None) => {}
                Err(e) => return Err(format!("waiting for pid {}: {e}", self.pid)),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set (`VmHWM`) so far, in MiB; `None` once the
    /// process has exited.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        vm_hwm_mib(self.pid, &self.name)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        {
            let mut c = self.lock();
            let _ = c.kill();
            let _ = c.wait();
        }
        live().retain(|c| !Arc::ptr_eq(c, &self.child));
    }
}

/// `VmHWM` of `pid` in MiB, read from procfs; `None` unless the process
/// is running the executable `name` (not yet exec'd, exited, or the pid
/// reused).
pub fn vm_hwm_mib(pid: u32, name: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let comm = status.lines().find_map(|l| l.strip_prefix("Name:"))?.trim();
    // procfs truncates the command name to 15 bytes.
    if !name.starts_with(comm) || comm.is_empty() {
        return None;
    }
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A running `delta_serve` and how long it took to become ready.
#[derive(Debug)]
pub struct Server {
    /// The process.
    pub proc: Proc,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Spawn → first `200` from `/readyz`.
    pub setup: Duration,
    _stdout: BufReader<ChildStdout>,
}

/// Spawns `delta_serve` with `args` plus `--addr 127.0.0.1:0`, reads the
/// port from its `serving on` line, and polls `/readyz` until `200`.
/// Its stderr goes to `log`.
pub fn start_server(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
    let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr);
    let started = Instant::now();
    let proc = Proc::spawn(cmd)?;
    let mut stdout = BufReader::new(proc.take_stdout().ok_or("delta_serve stdout not piped")?);
    let fail = |what: String| {
        let tail = std::fs::read_to_string(log).unwrap_or_default();
        format!("delta_serve {what}; stderr: {}", tail.trim())
    };
    let addr = loop {
        let mut line = String::new();
        match stdout.read_line(&mut line) {
            Ok(0) | Err(_) => return Err(fail("exited before serving".to_owned())),
            Ok(_) => {}
        }
        if let Some(rest) = line.split("serving on http://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            break addr
                .parse::<SocketAddr>()
                .map_err(|_| fail(format!("printed an unparseable address {addr:?}")))?;
        }
    };
    let mut client = Client::new(addr, Duration::from_secs(5));
    loop {
        if let Ok(r) = client.get("/readyz") {
            if r.status == 200 {
                break;
            }
        }
        if started.elapsed() > Duration::from_secs(60) {
            return Err(fail("never answered /readyz with 200".to_owned()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Server {
        proc,
        addr,
        setup: started.elapsed(),
        _stdout: stdout,
    })
}

/// A per-run scratch directory inside the checkout, removed on drop.
#[derive(Debug)]
pub struct RunDir {
    /// The directory.
    pub path: PathBuf,
}

impl RunDir {
    /// Creates `<root>/.bench_tmp/run-<pid>`.
    pub fn create(root: &Path) -> Result<RunDir, String> {
        let path = root
            .join(".bench_tmp")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir { path })
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

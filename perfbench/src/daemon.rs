//! Starting, stopping and talking in-process to the daemon under test.

use crate::load::{round_trip, Conn};
use crate::workload::{Spec, Workload, BUDGET_CAP_MICROS};
use epi_json::{Deserialize, Json};
use epi_service::{AuditService, Request, RequestMeta, Server, ServerMode, ServiceConfig};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Decision workers: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The daemon configuration a workload runs under: library defaults
/// except `workers = nproc`, plus a data directory (default fsync
/// policy and snapshot cadence) and the budget on durable workloads.
pub fn config(spec: &Spec, data_dir: Option<&Path>) -> ServiceConfig {
    let mut cfg = ServiceConfig {
        workers: workers(),
        ..ServiceConfig::default()
    };
    if spec.durable {
        cfg.data_dir = data_dir.map(Path::to_path_buf);
        cfg.budget.cap_micros = BUDGET_CAP_MICROS;
    }
    cfg
}

/// A running daemon: the service plus its TCP front-end.
pub struct Daemon {
    /// The in-process service.
    pub service: Arc<AuditService>,
    server: Option<Server>,
    /// Where the front-end listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Opens the service (recovering its log, when durable), spawns the
    /// reactor front-end and waits until it answers a `ping` over TCP.
    /// Returns the daemon and that set-up time.
    pub fn start(wl: &Workload, cfg: ServiceConfig) -> Result<(Daemon, Duration), String> {
        let started = Instant::now();
        let service =
            Arc::new(AuditService::open(wl.schema.clone(), cfg).map_err(|e| format!("open: {e}"))?);
        let server = Server::spawn(Arc::clone(&service), "127.0.0.1:0")
            .map_err(|e| format!("spawn: {e}"))?;
        if server.mode() != ServerMode::Reactor {
            return Err("the reactor front-end is unavailable".to_owned());
        }
        let addr = server.addr();
        let mut probe = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let (reply, _) =
            round_trip(&mut probe, r#"{"op":"ping"}"#).map_err(|e| format!("ping: {e}"))?;
        let elapsed = started.elapsed();
        if !reply.contains(r#""kind":"pong""#) {
            return Err(format!("unexpected ping reply {reply}"));
        }
        Ok((
            Daemon {
                service,
                server: Some(server),
                addr,
            },
            elapsed,
        ))
    }

    /// A client connection with Nagle off (requests are latency-timed).
    pub fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(stream)
    }

    /// Drains the front-end (flushing the log) and drops the service,
    /// joining every daemon thread.
    pub fn stop(mut self) {
        if let Some(server) = self.server.take() {
            server.drain(Duration::from_secs(30));
        }
        drop(self.service);
    }
}

/// Parses a request line as the front-end does and runs it through
/// `handle_with_meta`; returns the rendered reply and the handler time.
pub fn handle_line(service: &AuditService, line: &str) -> (String, Duration) {
    let json = Json::parse(line).expect("generated request lines are JSON");
    let request = Request::from_json(&json).expect("generated requests decode");
    let meta = RequestMeta::from_json(&json).expect("generated envelopes decode");
    let started = Instant::now();
    let response = service.handle_with_meta(&request, &meta);
    let took = started.elapsed();
    (response.to_json_with_id(meta.id.as_deref()).render(), took)
}

/// Feeds `slots` requests of each connection to `service` in-process,
/// checking every reply.
pub fn feed(service: &AuditService, wl: &Workload, conns: &mut [Conn], slots: u64) {
    for conn in conns.iter_mut() {
        for _ in 0..slots {
            let p = conn.prepare(wl);
            conn.tally.attempted += 1;
            let (reply, _) = handle_line(service, &p.line);
            conn.settle(&p, &reply);
        }
    }
}

/// Copies a directory tree (the pristine pre-written log) to `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Scratch directory of one run, inside the working directory.
pub fn run_dir(workload: &str) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()))
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

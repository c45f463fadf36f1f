//! A `CompileService` with a disk tier behind an in-process
//! `mbqc_net::Server` on loopback, and the probe that splits a warm
//! hit's latency into the service's own share and the network's.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dc_mbqc::{DcMbqcConfig, DistributedSchedule};
use mbqc_net::{Client, Server, WireJobOptions, WireOutcome};
use mbqc_pattern::Pattern;
use mbqc_service::{CompileService, ServiceConfig, StoreConfig};

use crate::programs::SERVICE_WORKERS;
use crate::stats::{median, ms};

/// Disk-tier budget. The disk tier's files are mapped into the
/// process, so without a budget the resident set grows with every job
/// served and `peak_rss_mb` would track throughput; `service_mix`
/// writes this much within its first seconds, after which the tier
/// evicts and the resident set levels off. It holds several times the
/// mix's repeat working set, so repeats still hit.
const DISK_BUDGET: usize = 128 << 20;

/// A running service and its TCP front door. Dropping it shuts the
/// server down, drains the service and then deletes the disk tier
/// (fields drop in declaration order).
pub struct Front {
    server: Server,
    pub service: Arc<CompileService>,
    _dir: DirGuard,
}

/// Deletes a directory when dropped.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Front {
    /// Starts a service with `SERVICE_WORKERS` workers, a memory tier of
    /// `memory_capacity` bytes and a fresh disk tier of `DISK_BUDGET`
    /// bytes in `dir`.
    pub fn start(dir: &Path, memory_capacity: usize) -> std::io::Result<Front> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let service = Arc::new(CompileService::new(ServiceConfig {
            workers: SERVICE_WORKERS,
            store: StoreConfig {
                memory_capacity,
                disk_dir: Some(dir.to_path_buf()),
                disk_capacity: Some(DISK_BUDGET),
                ..StoreConfig::default()
            },
            ..ServiceConfig::default()
        })?);
        let server = Server::bind(Arc::clone(&service), "127.0.0.1:0")?;
        Ok(Front {
            server,
            service,
            _dir: DirGuard(dir.to_path_buf()),
        })
    }

    /// The server's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// Submits one job over `client` and waits for its result.
pub fn remote_compile(
    client: &mut Client,
    pattern: &Pattern,
    config: &DcMbqcConfig,
) -> Result<DistributedSchedule, String> {
    let id = client
        .submit(pattern, config, WireJobOptions::default())
        .map_err(|e| format!("submit: {e}"))?;
    match client.wait(id, None).map_err(|e| format!("wait: {e}"))? {
        Some(WireOutcome::Ok(s)) => Ok(*s),
        Some(other) => Err(format!("job {id} ended {other:?}")),
        None => Err(format!("job {id}: wait returned no outcome")),
    }
}

/// Submits one job in process and waits for its result.
pub fn local_compile(
    service: &CompileService,
    pattern: &Pattern,
    config: &DcMbqcConfig,
) -> Result<DistributedSchedule, String> {
    let id = service.submit(pattern.clone(), config.clone());
    service.wait(id).map_err(|e| format!("in-process job: {e}"))
}

/// `net.overhead_ms_p50`: the median TCP warm hit minus the median
/// in-process warm hit, over `reps` alternating rounds of the same
/// already-completed jobs. Every answer must equal `expected`.
pub fn net_overhead_ms(
    front: &Front,
    client: &mut Client,
    jobs: &[(&Pattern, &DcMbqcConfig, &DistributedSchedule)],
    reps: usize,
) -> Result<f64, String> {
    let mut remote = Vec::new();
    let mut local = Vec::new();
    for _ in 0..reps {
        for &(pattern, config, expected) in jobs {
            let t = Instant::now();
            let r = remote_compile(client, pattern, config)?;
            remote.push(ms(t.elapsed()));
            let t = Instant::now();
            let l = local_compile(&front.service, pattern, config)?;
            local.push(ms(t.elapsed()));
            if &r != expected || &l != expected {
                return Err("a warm hit differs from the job's first result".into());
            }
        }
    }
    Ok(median(&remote) - median(&local))
}

//! Live daemons for one run: spawned in-process, registered through the
//! control client, torn down (threads joined) when dropped.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon};
use norns_proto::{BackendKind, DataspaceDesc, JobDesc};

/// Job id the benchmark's own tasks run under; far above the ids the
/// workflow executor assigns to its jobs (1, 2, ...).
pub const JOB: u64 = 1_000_000;

pub struct Node {
    pub name: String,
    pub daemon: UrdDaemon,
    mounts: Vec<(String, PathBuf)>,
}

impl Node {
    /// Spawn a daemon at default configuration under `dir/name`, with
    /// one dataspace per `nsids` entry and, if asked, a loopback data
    /// plane. `hosts` is the job's host list.
    pub fn spawn(
        dir: &Path,
        name: &str,
        nsids: &[&str],
        data_plane: bool,
        hosts: &[&str],
    ) -> io::Result<Node> {
        // Socket paths stay relative (AF_UNIX paths are short); the
        // dataspace mounts are absolute.
        let mut config = DaemonConfig::in_dir(dir.join(name).join("sock"));
        if data_plane {
            config = config.with_data_addr("127.0.0.1:0");
        }
        let daemon = UrdDaemon::spawn(config)?;
        let mut ctl = CtlClient::connect(&daemon.control_path).map_err(to_io)?;
        let root = std::env::current_dir()?.join(dir).join(name);
        let mut mounts = Vec::new();
        for nsid in nsids {
            let mount = root.join(nsid);
            ctl.register_dataspace(DataspaceDesc {
                nsid: nsid.to_string(),
                kind: BackendKind::NvmDax,
                mount: mount.to_string_lossy().into_owned(),
                quota: 0,
                tracked: false,
            })
            .map_err(to_io)?;
            mounts.push((nsid.to_string(), mount));
        }
        ctl.register_job(JobDesc {
            job_id: JOB,
            hosts: hosts.iter().map(|h| h.to_string()).collect(),
            limits: vec![],
        })
        .map_err(to_io)?;
        Ok(Node {
            name: name.to_string(),
            daemon,
            mounts,
        })
    }

    pub fn mount(&self, nsid: &str) -> &Path {
        &self
            .mounts
            .iter()
            .find(|(n, _)| n == nsid)
            .expect("dataspace registered at spawn")
            .1
    }

    pub fn data_addr(&self) -> String {
        self.daemon
            .data_addr()
            .expect("data plane enabled")
            .to_string()
    }

    pub fn add_peer(&self, host: &str, addr: &str) -> io::Result<()> {
        CtlClient::connect(&self.daemon.control_path)
            .and_then(|mut c| c.register_peer(host, addr))
            .map_err(to_io)
    }
}

pub fn to_io(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Write `bytes` to `mount/rel`, creating parents.
pub fn put(mount: &Path, rel: &str, bytes: &[u8]) -> io::Result<()> {
    let path = mount.join(rel);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, bytes)
}

/// Build a fresh bed `beds` times in a row, each in its own directory
/// under `base`, and run `measure` on it before it is torn down (its
/// daemons joined, its files removed). Set-up time is reported as the
/// median of the builds; spreading the measurement over several
/// independent daemon instances keeps one instance's thread placement
/// from deciding the whole run.
pub fn on_fresh_beds<B, R>(
    base: &Path,
    beds: usize,
    mut build: impl FnMut(&Path) -> io::Result<B>,
    mut measure: impl FnMut(&B, usize) -> io::Result<R>,
) -> io::Result<(Vec<f64>, Vec<R>)> {
    let mut secs = Vec::with_capacity(beds);
    let mut results = Vec::with_capacity(beds);
    for k in 0..beds {
        let dir = base.join(format!("bed{k}"));
        let started = Instant::now();
        let bed = build(&dir)?;
        secs.push(started.elapsed().as_secs_f64());
        let r = measure(&bed, k);
        drop(bed);
        let _ = fs::remove_dir_all(&dir);
        results.push(r?);
    }
    Ok((secs, results))
}

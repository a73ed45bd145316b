//! Pieces every workload shares: task specs, the outcome record, the
//! ping/gauge probe, the codec probe and the direct engine probe.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use norns_ipc::{Engine, PipelinedCtl};
use norns_proto::{
    decode_tagged, encode_frame, encode_tagged, CtlRequest, FrameReader, ResourceDesc, Response,
    TaskOp, TaskSpec, TaskState,
};

use crate::node::JOB;
use crate::util::{file_digest, median, pct, us_between};

/// A wait never blocks longer than this; an expired wait is a failure.
pub const WAIT_TIMEOUT_USEC: u64 = 30_000_000;

pub fn local(nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::PosixPath {
        nsid: nsid.into(),
        path: path.into(),
    }
}

pub fn remote(host: &str, nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::RemotePath {
        host: host.into(),
        nsid: nsid.into(),
        path: path.into(),
    }
}

pub fn copy(input: ResourceDesc, output: ResourceDesc) -> TaskSpec {
    TaskSpec::new(TaskOp::Copy, input, Some(output))
}

/// Size bucket used by the per-layer execution-time metrics.
pub fn bucket(bytes: u64) -> &'static str {
    if bytes <= 1 << 20 {
        "le1m"
    } else if bytes <= 16 << 20 {
        "le16m"
    } else {
        "gt16m"
    }
}

/// Operation counts of one run.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub busy: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.busy += o.busy;
    }
}

/// What a workload hands back to `main` for reporting.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    /// Median time of one unit of the workload's work, in ms.
    pub unit_ms: f64,
    pub gibps: f64,
    pub ops_per_s: f64,
    /// The workload's own end-to-end metrics: (name, unit, value).
    pub named: Vec<(String, &'static str, f64)>,
    /// Per-layer metrics from the traced run.
    pub layers: BTreeMap<String, f64>,
    pub env: Vec<(&'static str, String)>,
    /// The traced run's spans.
    pub trace: Option<crate::trace::Recorder>,
}

impl Outcome {
    pub fn named(&mut self, name: &str, unit: &'static str, value: f64) {
        self.named.push((name.to_string(), unit, value));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

/// Readings of the ping/gauge probe.
#[derive(Default, Clone)]
pub struct ProbeStats {
    pub ping_us: Vec<f64>,
    pub pending_peak: u64,
    pub parked_peak: u64,
    pub lag_peak_bytes: u64,
}

/// A probe thread: at a fixed cadence it pings each daemon through its
/// control socket (reactor and frame I/O, no engine work) and samples
/// the engine gauges the API exposes.
pub struct Probe {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ProbeStats>,
}

impl Probe {
    pub fn start(targets: Vec<(std::path::PathBuf, Arc<Engine>)>, cadence: Duration) -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut conns: Vec<(PipelinedCtl, Arc<Engine>)> = targets
                .into_iter()
                .map(|(p, e)| (PipelinedCtl::connect(&p).expect("probe connects"), e))
                .collect();
            let mut st = ProbeStats::default();
            let mut next = Instant::now();
            while !flag.load(Ordering::Relaxed) {
                for (conn, engine) in &mut conns {
                    let t0 = Instant::now();
                    if conn.ping().is_ok() {
                        st.ping_us.push(us_between(t0, Instant::now()));
                    }
                    let s = engine.status();
                    st.pending_peak = st.pending_peak.max(s.pending_tasks);
                    st.parked_peak = st.parked_peak.max(engine.parked_waits() as u64);
                    st.lag_peak_bytes = st.lag_peak_bytes.max(engine.replication_lag().1);
                }
                next += cadence;
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                } else {
                    next = now;
                }
            }
            st
        });
        Probe { stop, handle }
    }

    pub fn finish(self) -> ProbeStats {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("probe thread")
    }
}

impl ProbeStats {
    pub fn merge(&mut self, other: ProbeStats) {
        self.ping_us.extend(other.ping_us);
        self.pending_peak = self.pending_peak.max(other.pending_peak);
        self.parked_peak = self.parked_peak.max(other.parked_peak);
        self.lag_peak_bytes = self.lag_peak_bytes.max(other.lag_peak_bytes);
    }

    pub fn report(&self, out: &mut Outcome) {
        out.layer("daemon.ping_rtt_p50_us", median(&self.ping_us));
        out.layer("daemon.ping_rtt_p99_us", pct(&self.ping_us, 99.0));
        out.layer("engine.pending_peak", self.pending_peak as f64);
        out.layer("engine.parked_waits_peak", self.parked_peak as f64);
    }
}

/// The control-plane messages of one staged task, as sent and received.
pub struct TaskMsgs {
    pub submit: (u64, CtlRequest),
    pub submitted: (u64, Response),
    pub wait: (u64, CtlRequest),
    pub completed: (u64, Response),
}

/// Time `encode_tagged` + framing, and `FrameReader::next_frame` +
/// `decode_tagged`, over the workload's own message mix; also the exact
/// framed bytes per submit+wait. Returns `(encode_ns, decode_ns,
/// bytes_per_task)` per message.
pub fn codec_probe(mix: &[TaskMsgs]) -> (f64, f64, f64) {
    if mix.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut bytes = 0usize;
    for m in mix {
        bytes += encode_frame(&encode_tagged(m.submit.0, &m.submit.1)).len()
            + encode_frame(&encode_tagged(m.wait.0, &m.wait.1)).len()
            + encode_frame(&encode_tagged(m.submitted.0, &m.submitted.1)).len()
            + encode_frame(&encode_tagged(m.completed.0, &m.completed.1)).len();
    }
    let per_task = bytes as f64 / mix.len() as f64;
    let msgs = 4 * mix.len();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        let mut req_frames = Vec::with_capacity(2 * mix.len());
        let mut resp_frames = Vec::with_capacity(2 * mix.len());
        for m in mix {
            req_frames.push(encode_frame(&encode_tagged(m.submit.0, &m.submit.1)));
            req_frames.push(encode_frame(&encode_tagged(m.wait.0, &m.wait.1)));
            resp_frames.push(encode_frame(&encode_tagged(m.submitted.0, &m.submitted.1)));
            resp_frames.push(encode_frame(&encode_tagged(m.completed.0, &m.completed.1)));
        }
        let t1 = Instant::now();
        enc.push((t1 - t0).as_nanos() as f64 / msgs as f64);
        let req_stream: Vec<u8> = req_frames.iter().flat_map(|b| b.iter().copied()).collect();
        let resp_stream: Vec<u8> = resp_frames.iter().flat_map(|b| b.iter().copied()).collect();
        let t2 = Instant::now();
        let n = decode_stream::<CtlRequest>(&req_stream) + decode_stream::<Response>(&resp_stream);
        let t3 = Instant::now();
        assert_eq!(n, msgs, "codec probe lost frames");
        dec.push((t3 - t2).as_nanos() as f64 / msgs as f64);
    }
    (median(&enc), median(&dec), per_task)
}

fn decode_stream<T: norns_proto::Wire>(stream: &[u8]) -> usize {
    let mut reader = FrameReader::new();
    let mut n = 0;
    for chunk in stream.chunks(64 * 1024) {
        reader.extend(chunk);
        while let Some(frame) = reader.next_frame().expect("well-formed frames") {
            let (_, msg): (u64, T) = decode_tagged(frame).expect("well-formed payload");
            std::hint::black_box(&msg);
            n += 1;
        }
    }
    n
}

/// Copy `src` (whose contents have `(length, digest)` `want`) in
/// dataspace `nsid`, mounted at `mount`, `n` times straight through the
/// live daemon's engine, one at a time, timing only the
/// `Engine::submit` call. Each copy is awaited by querying the engine,
/// checked against `want` and removed. Returns the submit times in µs
/// and the counts.
pub fn engine_probe(
    engine: &Engine,
    nsid: &str,
    src: &str,
    mount: &Path,
    want: (u64, u64),
    n: usize,
) -> (Vec<f64>, Tally) {
    let mut times = Vec::with_capacity(n);
    let mut tally = Tally::default();
    let mut buf = Vec::new();
    for i in 0..n {
        tally.attempted += 1;
        let dst = format!("eng/e{i}");
        let spec = copy(local(nsid, src), local(nsid, &dst));
        let t0 = Instant::now();
        let r = engine.submit(JOB, spec, None);
        times.push(us_between(t0, Instant::now()));
        let Ok(id) = r else {
            tally.failed += 1;
            continue;
        };
        let deadline = Instant::now() + Duration::from_micros(WAIT_TIMEOUT_USEC);
        let state = loop {
            match engine.query(id) {
                Some(s) if s.state.is_terminal() => break Some(s.state),
                _ if Instant::now() > deadline => break None,
                _ => std::thread::sleep(Duration::from_micros(50)),
            }
        };
        if state != Some(TaskState::Finished) {
            tally.failed += 1;
        } else if file_digest(&mount.join(&dst), &mut buf).ok() != Some(want) {
            tally.mismatches += 1;
        }
        let _ = std::fs::remove_file(mount.join(&dst));
    }
    (times, tally)
}

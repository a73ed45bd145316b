//! `bulk_stage` and `wan_stage`: a seeded, count-weighted, log-uniform
//! file mix staged between two daemons as a closed loop with one
//! transfer outstanding. `bulk_stage` copies each file locally, pushes
//! it to the peer and pulls it back, on loopback at default config.
//! `wan_stage` pushes and pulls a smaller mix through the delay shaper.
//!
//! A round stages every file of the seeded set once, in a seeded order;
//! the set's total size is fixed, so rounds of different seeds do the
//! same amount of work.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use norns_ipc::PipelinedCtl;
use norns_proto::{CtlRequest, Response, TaskSpec, TaskState, TaskStats};

use crate::node::{on_fresh_beds, put, to_io, Node, JOB};
use crate::ops::{
    bucket, codec_probe, copy, engine_probe, local, remote, Outcome, Probe, ProbeStats, Tally,
    TaskMsgs, WAIT_TIMEOUT_USEC,
};
use crate::shaper::{self_check, Shaper};
use crate::trace::{Layer, Recorder};
use crate::util::{content, digest, file_digest, log_uniform_mix, median, pct, us_between, Rng};
use crate::Args;

const MIB: u64 = 1 << 20;

/// The file mix of one workload.
struct Mix {
    files: usize,
    lo: u64,
    hi: u64,
    total: u64,
}

const BULK_MIX: Mix = Mix {
    files: 24,
    lo: 64 << 10,
    hi: 64 * MIB,
    total: 256 * MIB,
};

const WAN_MIX: Mix = Mix {
    files: 16,
    lo: 64 << 10,
    hi: 16 * MIB,
    total: 48 * MIB,
};

/// Round-trip time the shaper adds on `wan_stage`.
pub const WAN_RTT: Duration = Duration::from_millis(2);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Local,
    Push,
    Pull,
}

struct File {
    path: String,
    len: u64,
    digest: u64,
}

struct Bed {
    a: Node,
    b: Node,
    files: Vec<File>,
    shaper: Option<(Shaper, f64)>,
}

fn build(dir: &Path, seed: u64, wan: bool) -> io::Result<Bed> {
    let hosts = ["na", "nb"];
    let a = Node::spawn(dir, "na", &["dsa"], true, &hosts)?;
    let b = Node::spawn(dir, "nb", &["dsb"], true, &hosts)?;
    let shaper = if wan {
        let one_way = WAN_RTT / 2;
        let rtt = self_check(one_way)?;
        let s = Shaper::start(b.daemon.data_addr().expect("data plane enabled"), one_way)?;
        a.add_peer("nb", &s.addr.to_string())?;
        Some((s, rtt))
    } else {
        a.add_peer("nb", &b.data_addr())?;
        None
    };
    b.add_peer("na", &a.data_addr())?;
    let mix = if wan { &WAN_MIX } else { &BULK_MIX };
    let mut rng = Rng::new(seed, 20);
    let sizes = log_uniform_mix(&mut rng, mix.files, mix.lo, mix.hi, mix.total);
    let mut files = Vec::with_capacity(sizes.len());
    for (k, len) in sizes.into_iter().enumerate() {
        let bytes = content(rng.next_u64(), len as usize);
        let path = format!("in/f{k}");
        put(a.mount("dsa"), &path, &bytes)?;
        files.push(File {
            path,
            len,
            digest: digest(&bytes),
        });
    }
    Ok(Bed {
        a,
        b,
        files,
        shaper,
    })
}

/// One finished (or failed) staging operation.
struct Op {
    kind: Kind,
    bytes: u64,
    us: f64,
    stats: Option<TaskStats>,
}

struct Generator<'a> {
    bed: &'a Bed,
    conn: PipelinedCtl,
    rec: Recorder,
    tally: Tally,
    mix: Vec<TaskMsgs>,
    wait_for_us: Vec<f64>,
    /// Completion → next issue gaps: how late the closed loop ran.
    turn_us: Vec<f64>,
    last_end: Option<Instant>,
    buf: Vec<u8>,
    seq: u64,
}

impl<'a> Generator<'a> {
    fn new(bed: &'a Bed, rec: Recorder) -> io::Result<Generator<'a>> {
        Ok(Generator {
            bed,
            conn: PipelinedCtl::connect(&bed.a.daemon.control_path).map_err(to_io)?,
            rec,
            tally: Tally::default(),
            mix: Vec::new(),
            wait_for_us: Vec::new(),
            turn_us: Vec::new(),
            last_end: None,
            buf: Vec::new(),
            seq: 0,
        })
    }

    /// Submit `spec` on daemon A, wait for it, and return the operation
    /// (its latency is issue → completion answer).
    fn stage(&mut self, kind: Kind, bytes: u64, spec: TaskSpec) -> Op {
        self.tally.attempted += 1;
        let seq = self.seq;
        self.seq += 1;
        let failed = |d: &mut Self| {
            d.tally.failed += 1;
            Op {
                kind,
                bytes,
                us: f64::INFINITY,
                stats: None,
            }
        };
        let req = CtlRequest::SubmitTask { job_id: JOB, spec };
        let t0 = Instant::now();
        if let Some(prev) = self.last_end {
            self.turn_us.push(us_between(prev, t0));
        }
        let Ok(tag) = self.conn.issue(&req, None) else {
            return failed(self);
        };
        let t1 = Instant::now();
        let reply = self.conn.wait_for(tag);
        let t2 = Instant::now();
        let Ok(submitted @ Response::TaskSubmitted { task_id }) = reply else {
            return failed(self);
        };
        let wait = CtlRequest::WaitTask {
            task_id,
            timeout_usec: WAIT_TIMEOUT_USEC,
        };
        let t3 = Instant::now();
        let Ok(wtag) = self.conn.issue(&wait, None) else {
            return failed(self);
        };
        let t4 = Instant::now();
        let done = self.conn.wait_for(wtag);
        let t5 = Instant::now();
        self.last_end = Some(t5);
        self.wait_for_us.push(us_between(t1, t2));
        self.wait_for_us.push(us_between(t4, t5));
        let stats = match done {
            Ok(Response::TaskStatus(s)) if s.state == TaskState::Finished => s,
            _ => return failed(self),
        };
        if self.rec.on {
            let r = &mut self.rec;
            let root = Some(r.span("op", Layer::Unit, None, seq, t0, t5));
            r.span("client.issue", Layer::Client, root, seq, t0, t1);
            r.span("gen.turn", Layer::Gen, root, seq, t2, t3);
            r.span("client.issue", Layer::Client, root, seq, t3, t4);
            let (name, layer) = match kind {
                Kind::Local => ("transfer.exec", Layer::Transfer),
                Kind::Push => ("remote.push", Layer::Remote),
                Kind::Pull => ("remote.pull", Layer::Remote),
            };
            let exec_start = r.derived(name, layer, root, seq, stats.elapsed_usec, t5);
            r.derived(
                "engine.queue",
                Layer::Engine,
                root,
                seq,
                stats.wait_usec,
                exec_start,
            );
            if self.mix.len() < 4096 {
                self.mix.push(TaskMsgs {
                    submit: (tag, req),
                    submitted: (tag, submitted),
                    wait: (wtag, wait),
                    completed: (wtag, Response::TaskStatus(stats.clone())),
                });
            }
        }
        Op {
            kind,
            bytes,
            us: us_between(t0, t5),
            stats: Some(stats),
        }
    }

    /// Check the file at `path` against `want`; a mismatch fails the run.
    fn verify(&mut self, path: &Path, want: &File) {
        match file_digest(path, &mut self.buf) {
            Ok((len, d)) if len == want.len && d == want.digest => {}
            _ => self.tally.mismatches += 1,
        }
    }

    /// Stage every file once, in a seeded order.
    fn round(&mut self, rng: &mut Rng, wan: bool) -> Vec<Op> {
        let bed = self.bed;
        let mut order: Vec<usize> = (0..bed.files.len()).collect();
        rng.shuffle(&mut order);
        let (mount_a, mount_b) = (bed.a.mount("dsa"), bed.b.mount("dsb"));
        let mut ops = Vec::with_capacity(3 * order.len());
        for k in order {
            let f = &bed.files[k];
            if !wan {
                let to = format!("loc/f{k}");
                ops.push(self.stage(
                    Kind::Local,
                    f.len,
                    copy(local("dsa", &f.path), local("dsa", &to)),
                ));
                self.verify(&mount_a.join(&to), f);
                let _ = std::fs::remove_file(mount_a.join(&to));
            }
            let pushed = format!("push/f{k}");
            ops.push(self.stage(
                Kind::Push,
                f.len,
                copy(local("dsa", &f.path), remote("nb", "dsb", &pushed)),
            ));
            self.verify(&mount_b.join(&pushed), f);
            let pulled = format!("pull/f{k}");
            ops.push(self.stage(
                Kind::Pull,
                f.len,
                copy(remote("nb", "dsb", &pushed), local("dsa", &pulled)),
            ));
            self.verify(&mount_a.join(&pulled), f);
            let _ = std::fs::remove_file(mount_b.join(&pushed));
            let _ = std::fs::remove_file(mount_a.join(&pulled));
        }
        ops
    }
}

/// Per-round figures: (round ms, GiB/s, ops/s, and GiB/s per kind).
struct RoundStats {
    ms: f64,
    gibps: f64,
    ops_per_s: f64,
    kind_gibps: [f64; 3],
}

fn round_stats(ops: &[Op]) -> RoundStats {
    let gib = (1u64 << 30) as f64;
    let us: f64 = ops.iter().map(|o| o.us).sum();
    let bytes: u64 = ops.iter().map(|o| o.bytes).sum();
    let kind = |k: Kind| {
        let (b, t) = ops
            .iter()
            .filter(|o| o.kind == k)
            .fold((0u64, 0f64), |(b, t), o| (b + o.bytes, t + o.us));
        if t > 0.0 {
            b as f64 / gib / (t / 1e6)
        } else {
            0.0
        }
    };
    RoundStats {
        ms: us / 1e3,
        gibps: bytes as f64 / gib / (us / 1e6),
        ops_per_s: ops.len() as f64 / (us / 1e6),
        kind_gibps: [kind(Kind::Local), kind(Kind::Push), kind(Kind::Pull)],
    }
}

/// Run rounds until `dur` has passed; returns every round's operations.
fn rounds(d: &mut Generator, rng: &mut Rng, dur: Duration, wan: bool) -> Vec<Vec<Op>> {
    let end = Instant::now() + dur;
    let mut out = Vec::new();
    while Instant::now() < end || out.is_empty() {
        out.push(d.round(rng, wan));
    }
    out
}

pub fn run(args: &Args, epoch: Instant, wan: bool) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mix = if wan { &WAN_MIX } else { &BULK_MIX };
    out.env.push((
        "file_mix",
        format!(
            "{} files, count-weighted log-uniform {} KiB-{} MiB, {} MiB per round",
            mix.files,
            mix.lo >> 10,
            mix.hi / MIB,
            mix.total / MIB
        ),
    ));
    out.env.push((
        "shaper_rtt_us",
        if wan {
            format!("{}", WAN_RTT.as_micros())
        } else {
            "none".into()
        },
    ));
    let per_bed = args.seconds / BEDS as f64 / if args.trace { 2.0 } else { 1.0 };
    let phase = Duration::from_secs_f64(per_bed);
    let (setup, runs) = on_fresh_beds(
        &args.work,
        BEDS,
        |dir| build(dir, args.seed, wan),
        |bed, k| {
            let mut rng = Rng::new(args.seed, 21 + k as u64);
            let mut d = Generator::new(bed, Recorder::new(false, epoch))?;
            let plain = rounds(&mut d, &mut rng, phase, wan);
            let mut tally = d.tally;
            if !args.trace {
                return Ok(BedSummary {
                    plain: plain.iter().map(|r| round_stats(r)).collect(),
                    tally,
                    layers: None,
                });
            }
            let engine = bed.a.daemon.engine();
            let shaper_before = bed.shaper.as_ref().map(|(s, _)| snapshot(s));
            let probe = Probe::start(
                vec![
                    (bed.a.daemon.control_path.clone(), Arc::clone(engine)),
                    (
                        bed.b.daemon.control_path.clone(),
                        Arc::clone(bed.b.daemon.engine()),
                    ),
                ],
                Duration::from_millis(2),
            );
            let mut td = Generator::new(bed, Recorder::new(true, epoch))?;
            let traced = rounds(&mut td, &mut rng, phase, wan);
            let probe = probe.finish();
            tally.add(td.tally);
            let shaper = match (&bed.shaper, shaper_before) {
                (Some((s, rtt)), Some(before)) => {
                    let after = snapshot(s);
                    let mut delta: [u64; 5] = std::array::from_fn(|i| after[i] - before[i]);
                    // Connections are counted from the shaper's start,
                    // so cache reuse across the whole run shows.
                    delta[0] = after[0];
                    Some((delta, *rtt))
                }
                _ => None,
            };
            let (submit_us, probe_tally) = engine_submit_probe(bed);
            tally.add(probe_tally);
            Ok(BedSummary {
                plain: plain.iter().map(|r| round_stats(r)).collect(),
                tally,
                layers: Some(TracedBed {
                    traced_ms: traced.iter().map(|r| round_stats(r).ms).collect(),
                    ops: traced
                        .into_iter()
                        .flatten()
                        .map(|o| (o.kind, o.bytes, o.stats))
                        .collect(),
                    rec: td.rec,
                    mix: td.mix,
                    wait_for_us: td.wait_for_us,
                    turn_us: td.turn_us,
                    probe,
                    shaper,
                    peak_chunk_workers: engine.peak_chunk_workers(),
                    submit_us,
                }),
            })
        },
    )?;
    out.setup_s = setup;
    let stats: Vec<&RoundStats> = runs.iter().flat_map(|r| r.plain.iter()).collect();
    runs.iter().for_each(|r| out.tally.add(r.tally));
    let col =
        |f: &dyn Fn(&RoundStats) -> f64| median(&stats.iter().map(|s| f(s)).collect::<Vec<_>>());
    out.unit_ms = col(&|s| s.ms);
    out.gibps = col(&|s| s.gibps);
    out.ops_per_s = col(&|s| s.ops_per_s);
    if !wan {
        out.named("local_gibps", "GiB/s", col(&|s| s.kind_gibps[0]));
    }
    out.named("push_gibps", "GiB/s", col(&|s| s.kind_gibps[1]));
    out.named("pull_gibps", "GiB/s", col(&|s| s.kind_gibps[2]));
    out.named("rounds", "count", stats.len() as f64);
    if args.trace {
        let beds: Vec<TracedBed> = runs.into_iter().filter_map(|r| r.layers).collect();
        report_traced(&mut out, beds, epoch);
    }
    out.layer("engine.busy_rejects", out.tally.busy as f64);
    Ok(out)
}

/// Beds each workload measurement is spread over.
const BEDS: usize = 3;

struct BedSummary {
    plain: Vec<RoundStats>,
    tally: Tally,
    layers: Option<TracedBed>,
}

/// The traced half of one bed's measurement.
struct TracedBed {
    traced_ms: Vec<f64>,
    ops: Vec<(Kind, u64, Option<TaskStats>)>,
    rec: Recorder,
    mix: Vec<TaskMsgs>,
    wait_for_us: Vec<f64>,
    turn_us: Vec<f64>,
    probe: ProbeStats,
    shaper: Option<([u64; 5], f64)>,
    peak_chunk_workers: u64,
    submit_us: Vec<f64>,
}

/// Direct `Engine::submit` of local copies of the smallest file.
fn engine_submit_probe(bed: &Bed) -> (Vec<f64>, Tally) {
    let f = bed
        .files
        .iter()
        .min_by_key(|f| f.len)
        .expect("a non-empty mix");
    engine_probe(
        bed.a.daemon.engine(),
        "dsa",
        &f.path,
        bed.a.mount("dsa"),
        (f.len, f.digest),
        64,
    )
}

fn report_traced(out: &mut Outcome, beds: Vec<TracedBed>, epoch: Instant) {
    let traced_ms: Vec<f64> = beds
        .iter()
        .flat_map(|b| b.traced_ms.iter().copied())
        .collect();
    out.layer(
        "trace.overhead_pct",
        100.0 * (median(&traced_ms) - out.unit_ms) / out.unit_ms.max(1e-9),
    );
    let mut probe = ProbeStats::default();
    let mut rec = Recorder::new(true, epoch);
    let mut mix = Vec::new();
    let (mut wait_for_us, mut turn_us, mut submit_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = Vec::new();
    let mut shaper: Option<([u64; 5], f64)> = None;
    let mut peak = 0;
    for b in beds {
        probe.merge(b.probe);
        rec.absorb(b.rec);
        mix.extend(b.mix);
        wait_for_us.extend(b.wait_for_us);
        turn_us.extend(b.turn_us);
        submit_us.extend(b.submit_us);
        ops.extend(b.ops);
        peak = peak.max(b.peak_chunk_workers);
        if let Some((d, rtt)) = b.shaper {
            let acc = shaper.get_or_insert(([0; 5], rtt));
            for (a, x) in acc.0.iter_mut().zip(d) {
                *a += x;
            }
            acc.1 = acc.1.max(rtt);
        }
    }
    probe.report(out);
    let (enc, dec, per_task) = codec_probe(&mix);
    out.layer("proto.encode_ns", enc);
    out.layer("proto.decode_ns", dec);
    out.layer("proto.bytes_per_task", per_task);
    out.layer("client.issue_us", rec.median_us("client.issue"));
    out.layer("client.poll_us", median(&wait_for_us));
    out.layer("client.resp_per_poll", 1.0);
    out.layer("gen.late_p99_us", pct(&turn_us, 99.0));
    out.layer("engine.submit_us", median(&submit_us));
    out.layer("transfer.peak_chunk_workers", peak as f64);
    let field = |f: fn(&TaskStats) -> u64, keep: &dyn Fn(Kind, u64) -> bool| -> Vec<f64> {
        ops.iter()
            .filter(|(k, b, _)| keep(*k, *b))
            .filter_map(|(_, _, s)| s.as_ref().map(|s| f(s) as f64))
            .collect()
    };
    let waits = field(|s| s.wait_usec, &|_, _| true);
    out.layer("engine.queue_wait_p50_us", median(&waits));
    out.layer("engine.queue_wait_p99_us", pct(&waits, 99.0));
    out.layer(
        "engine.exec_p50_us",
        median(&field(|s| s.elapsed_usec, &|_, _| true)),
    );
    for (kind, prefix) in [
        (Kind::Local, "transfer.exec_ms"),
        (Kind::Push, "remote.push_exec_ms"),
        (Kind::Pull, "remote.pull_exec_ms"),
    ] {
        for b in ["le1m", "le16m", "gt16m"] {
            let v = field(|s| s.elapsed_usec, &|k, bytes| {
                k == kind && bucket(bytes) == b
            });
            out.layer(&format!("{prefix}.{b}"), median(&v) / 1e3);
        }
    }
    out.layer(
        "remote.queue_wait_us",
        median(&field(|s| s.wait_usec, &|k, _| k != Kind::Local)),
    );
    if let Some((d, rtt)) = shaper {
        let per_mib = |reads: u64, bytes: u64| reads as f64 / (bytes as f64 / MIB as f64).max(1e-9);
        out.layer("shaper.segments_per_mib.up", per_mib(d[1], d[2]));
        out.layer("shaper.segments_per_mib.down", per_mib(d[3], d[4]));
        out.layer("shaper.conns_opened", d[0] as f64);
        out.layer("shaper.rtt_us", rtt);
    }
    out.trace = Some(rec);
}

/// `[conns, up_reads, up_bytes, down_reads, down_bytes]` of a shaper.
fn snapshot(s: &Shaper) -> [u64; 5] {
    use std::sync::atomic::Ordering::Relaxed;
    let st = &s.stats;
    [
        st.conns.load(Relaxed),
        st.up_reads.load(Relaxed),
        st.up_bytes.load(Relaxed),
        st.down_reads.load(Relaxed),
        st.down_bytes.load(Relaxed),
    ]
}

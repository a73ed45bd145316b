//! `workflow`: a 9-job `#NORNS` DAG on two daemons, driven by
//! `WorkflowExecutor` — two parallel chains of four jobs and a gather
//! job. Each job stages in a seeded 16–64 MiB input, runs a
//! deterministic CPU body that digests (and so checks) it, and stages its
//! output out to the node-local `bb` dataspace with `#NORNS durability
//! local_plus_one`, so the daemon replicates it to the peer.
//!
//! Chain `a` runs on node `n0`, chain `b` on `n1`; the inputs live in
//! the `pfs` dataspace on `n0`, so chain `b` pulls its stage-ins over
//! the data plane. Both chains stage the same total, so every seed's
//! DAG does the same amount of work.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use norns_flow::{FlowConfig, FlowJobState, JobBody, NodeSpec, WorkflowExecutor};
use norns_proto::{CtlRequest, ErrorCode, Response, TaskState, TaskStats};

use crate::node::{on_fresh_beds, put, Node, JOB};
use crate::ops::{
    codec_probe, copy, engine_probe, local, remote, Outcome, Probe, ProbeStats, Tally, TaskMsgs,
};
use crate::trace::{Layer, Recorder};
use crate::util::{content, digest, file_digest, median, pct, Rng};
use crate::Args;

const MIB: u64 = 1 << 20;
const CHAIN: usize = 4;
/// Bytes each chain stages in (split over its four jobs).
const CHAIN_TOTAL: u64 = 160 * MIB;
const GATHER_IN: u64 = 40 * MIB;
const MIN_IN: u64 = 16 * MIB;
const MAX_IN: u64 = 64 * MIB;
/// A job's output is this fraction of its input.
const OUT_DIV: u64 = 4;
/// Small file the direct engine probe copies.
const PROBE_FILE: &str = "probe.dat";

/// One job of the DAG as the seed lays it out.
struct JobPlan {
    name: String,
    /// Index of the node the job runs on (0 or 1).
    node: usize,
    /// Indices of the jobs it depends on.
    deps: Vec<usize>,
    /// Stage-in bytes.
    len: u64,
    script: String,
    /// Content seeds of the input and the output.
    seeds: (u64, u64),
}

struct Job {
    plan: JobPlan,
    input: (u64, u64),
    output: Arc<Vec<u8>>,
    out_digest: u64,
}

struct Bed {
    nodes: [Node; 2],
    jobs: Vec<Job>,
}

/// Four sizes in `[MIN_IN, MAX_IN]` summing to `CHAIN_TOTAL`.
fn chain_sizes(rng: &mut Rng) -> Vec<u64> {
    loop {
        let raw: Vec<f64> = (0..CHAIN)
            .map(|_| rng.range(MIN_IN, MAX_IN) as f64)
            .collect();
        let scale = CHAIN_TOTAL as f64 / raw.iter().sum::<f64>();
        let mut sizes: Vec<u64> = raw.iter().map(|s| ((s * scale) as u64) & !4095).collect();
        let drift = CHAIN_TOTAL - sizes.iter().sum::<u64>();
        sizes[CHAIN - 1] += drift;
        if sizes.iter().all(|&s| (MIN_IN..=MAX_IN).contains(&s)) {
            return sizes;
        }
    }
}

/// The seeded DAG. Submission order alternates the chains, so the
/// executor's round-robin placement puts chain `a` on n0 and chain `b`
/// on n1; the gather job follows both chains' last jobs, on n0.
fn dag(seed: u64) -> Vec<JobPlan> {
    let mut rng = Rng::new(seed, 40);
    let (a, b) = (chain_sizes(&mut rng), chain_sizes(&mut rng));
    let mut shape: Vec<(String, usize, Vec<usize>, u64)> = Vec::new();
    for k in 0..CHAIN {
        for (node, sizes) in [&a, &b].into_iter().enumerate() {
            let deps = if k == 0 {
                vec![]
            } else {
                vec![shape.len() - 2]
            };
            shape.push((
                format!("{}{}", ["a", "b"][node], k + 1),
                node,
                deps,
                sizes[k],
            ));
        }
    }
    shape.push((
        "g".into(),
        0,
        vec![shape.len() - 2, shape.len() - 1],
        GATHER_IN,
    ));
    let names: Vec<String> = shape.iter().map(|j| j.0.clone()).collect();
    shape
        .into_iter()
        .map(|(name, node, deps, len)| {
            let mut script = format!("#SBATCH --job-name={name}\n#SBATCH --nodes=1\n");
            if deps.is_empty() {
                script.push_str("#SBATCH --workflow-start\n");
            } else if deps.len() > 1 {
                script.push_str("#SBATCH --workflow-end\n");
            }
            for &d in &deps {
                script.push_str(&format!(
                    "#SBATCH --workflow-prior-dependency={}\n",
                    names[d]
                ));
            }
            script.push_str(&format!(
                "#NORNS stage_in pfs://in/{name}.dat bb://work/{name}/in.dat\n\
                 #NORNS stage_out bb://work/{name}/out.dat bb://results/{name}.out\n\
                 #NORNS durability local_plus_one\n"
            ));
            JobPlan {
                name,
                node,
                deps,
                len,
                script,
                seeds: (rng.next_u64(), rng.next_u64()),
            }
        })
        .collect()
}

fn build(dir: &Path, seed: u64) -> io::Result<Bed> {
    let hosts = ["n0", "n1"];
    let n0 = Node::spawn(dir, "n0", &["pfs", "bb"], true, &hosts)?;
    let n1 = Node::spawn(dir, "n1", &["bb"], true, &hosts)?;
    let mut jobs = Vec::new();
    for plan in dag(seed) {
        let bytes = content(plan.seeds.0, plan.len as usize);
        put(n0.mount("pfs"), &format!("in/{}.dat", plan.name), &bytes)?;
        let output = content(plan.seeds.1, (plan.len / OUT_DIV) as usize);
        jobs.push(Job {
            input: (plan.len, digest(&bytes)),
            out_digest: digest(&output),
            output: Arc::new(output),
            plan,
        });
    }
    put(n0.mount("bb"), PROBE_FILE, &content(seed, 64 << 10))?;
    Ok(Bed {
        nodes: [n0, n1],
        jobs,
    })
}

/// Per job, its body's start and end, written by the body itself.
type BodyTimes = Arc<Mutex<Vec<Option<(Instant, Instant)>>>>;

/// Timings of one DAG run, relative to nothing (absolute instants).
struct Iter {
    t0: Instant,
    run_start: Instant,
    run_end: Instant,
    durable: Instant,
    /// Per job: body start and end.
    bodies: Vec<Option<(Instant, Instant)>>,
    parse_us: Vec<f64>,
    wait_round_trips: u64,
    query_round_trips: u64,
    staged_bytes: u64,
    replica_bytes: u64,
    tally: Tally,
}

impl Iter {
    fn makespan(&self) -> f64 {
        (self.run_end - self.t0).as_secs_f64()
    }
}

fn bb(bed: &Bed, node: usize) -> PathBuf {
    bed.nodes[node].mount("bb").to_path_buf()
}

/// Run the DAG once, wait until replication lag is zero on both
/// daemons, and verify every output and replica.
fn iterate(bed: &Bed) -> io::Result<Iter> {
    for node in 0..2 {
        for d in ["work", "results"] {
            let _ = fs::remove_dir_all(bb(bed, node).join(d));
        }
    }
    let bodies: BodyTimes = Arc::new(Mutex::new(vec![None; bed.jobs.len()]));
    let body_mismatch = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let mut exec = WorkflowExecutor::new(FlowConfig::default());
    for (k, node) in bed.nodes.iter().enumerate() {
        exec.add_node(NodeSpec {
            name: node.name.clone(),
            control_path: node.daemon.control_path.clone(),
            dataspaces: if k == 0 {
                vec!["pfs".into(), "bb".into()]
            } else {
                vec!["bb".into()]
            },
        })
        .map_err(crate::node::to_io)?;
    }
    let mut parse_us = Vec::new();
    for (idx, job) in bed.jobs.iter().enumerate() {
        let p0 = Instant::now();
        let parsed = norns_flow::parse(&job.plan.script);
        parse_us.push(crate::util::us_between(p0, Instant::now()));
        parsed.map_err(|e| io::Error::other(format!("{}: {e}", job.plan.name)))?;
        let work = bb(bed, job.plan.node).join("work").join(&job.plan.name);
        let (want_len, want_digest) = job.input;
        let output = Arc::clone(&job.output);
        let (times, bad) = (Arc::clone(&bodies), Arc::clone(&body_mismatch));
        // The body's compute is digesting its staged input, which also
        // checks it; on a 2-core x86-64 host this takes about as long
        // as the stage-in.
        let body = JobBody::Run(Box::new(move || {
            let start = Instant::now();
            let got =
                file_digest(&work.join("in.dat"), &mut Vec::new()).map_err(|e| e.to_string())?;
            let result = if got != (want_len, want_digest) {
                bad.fetch_add(1, Ordering::Relaxed);
                Err("staged input does not match its digest".to_string())
            } else {
                fs::write(work.join("out.dat"), &*output).map_err(|e| e.to_string())
            };
            times.lock().expect("body timing lock")[idx] = Some((start, Instant::now()));
            result
        }));
        exec.submit(&job.plan.script, body)
            .map_err(crate::node::to_io)?;
    }
    let run_start = Instant::now();
    let outcomes = exec.run().map_err(crate::node::to_io)?;
    let run_end = Instant::now();
    let mut tally = Tally::default();
    for (_, state) in &outcomes {
        tally.attempted += 1;
        if *state != FlowJobState::Completed {
            tally.failed += 1;
        }
    }
    // Outputs are safe once neither daemon has replication lag left.
    let deadline = Instant::now() + Duration::from_secs(60);
    let durable = loop {
        let lag: u64 = bed
            .nodes
            .iter()
            .map(|n| n.daemon.engine().replication_lag().0)
            .sum();
        let now = Instant::now();
        if lag == 0 || now > deadline {
            if lag != 0 {
                tally.failed += 1;
            }
            break now;
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    let mut buf = Vec::new();
    let mut staged_bytes = 0;
    let mut replica_bytes = 0;
    for (job, (_, state)) in bed.jobs.iter().zip(&outcomes) {
        if *state != FlowJobState::Completed {
            continue;
        }
        staged_bytes += job.input.0 + job.output.len() as u64;
        let want = (job.output.len() as u64, job.out_digest);
        for node in [job.plan.node, 1 - job.plan.node] {
            let path = bb(bed, node)
                .join("results")
                .join(format!("{}.out", job.plan.name));
            if file_digest(&path, &mut buf).ok() != Some(want) {
                tally.mismatches += 1;
            } else if node != job.plan.node {
                replica_bytes += want.0;
            }
        }
    }
    tally.mismatches += body_mismatch.load(Ordering::Relaxed);
    let bodies = bodies.lock().expect("body timing lock").clone();
    Ok(Iter {
        t0,
        run_start,
        run_end,
        durable,
        bodies,
        parse_us,
        wait_round_trips: exec.wait_round_trips(),
        query_round_trips: exec.query_round_trips(),
        staged_bytes,
        replica_bytes,
        tally,
    })
}

fn iterations(bed: &Bed, dur: Duration) -> io::Result<Vec<Iter>> {
    let end = Instant::now() + dur;
    let mut out = Vec::new();
    while Instant::now() < end || out.is_empty() {
        out.push(iterate(bed)?);
    }
    Ok(out)
}

/// Record one DAG run's spans: the makespan as the unit; per job its
/// stage-in wait (from its last predecessor's body end, or the run
/// start) and its body; the tail from the last body end to `run()`
/// returning; and the submission before `run()`.
fn record(rec: &mut Recorder, jobs: &[JobPlan], it: &Iter, req: u64) {
    let root = Some(rec.span("dag", Layer::Unit, None, req, it.t0, it.run_end));
    rec.span("flow.submit", Layer::Gen, root, req, it.t0, it.run_start);
    for (job, body) in jobs.iter().zip(&it.bodies) {
        let Some((bs, be)) = *body else { continue };
        let ready = job
            .deps
            .iter()
            .filter_map(|&d| it.bodies[d].map(|b| b.1))
            .max()
            .unwrap_or(it.run_start);
        rec.span("flow.stage_in", Layer::Flow, root, req, ready, bs);
        rec.span("body", Layer::Body, root, req, bs, be);
    }
    if let Some(last) = it.bodies.iter().filter_map(|b| b.map(|b| b.1)).max() {
        rec.span("flow.tail", Layer::Flow, root, req, last, it.run_end);
    }
}

/// Beds each measurement is spread over.
const BEDS: usize = 3;

struct BedSummary {
    plain: Vec<Iter>,
    traced: Option<TracedBed>,
    tally: Tally,
}

/// The traced half of one bed's measurement.
struct TracedBed {
    iters: Vec<Iter>,
    probe: ProbeStats,
    submit_us: Vec<f64>,
    peak_chunk_workers: u64,
}

fn measure(bed: &Bed, trace: bool, phase: Duration) -> io::Result<BedSummary> {
    let plain = iterations(bed, phase)?;
    let mut tally = Tally::default();
    plain.iter().for_each(|it| tally.add(it.tally));
    if !trace {
        return Ok(BedSummary {
            plain,
            traced: None,
            tally,
        });
    }
    let targets = bed
        .nodes
        .iter()
        .map(|n| (n.daemon.control_path.clone(), Arc::clone(n.daemon.engine())))
        .collect();
    let probe = Probe::start(targets, Duration::from_millis(2));
    let traced = iterations(bed, phase)?;
    let probe = probe.finish();
    traced.iter().for_each(|it| tally.add(it.tally));
    // Direct `Engine::submit` of small local copies on n0.
    let engine = bed.nodes[0].daemon.engine();
    let mount = bb(bed, 0);
    let want = file_digest(&mount.join(PROBE_FILE), &mut Vec::new())?;
    let (submit_us, ptally) = engine_probe(engine, "bb", PROBE_FILE, &mount, want, 64);
    tally.add(ptally);
    Ok(BedSummary {
        plain,
        traced: Some(TracedBed {
            iters: traced,
            probe,
            submit_us,
            peak_chunk_workers: engine.peak_chunk_workers(),
        }),
        tally,
    })
}

pub fn run(args: &Args, epoch: Instant) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    out.env.push((
        "file_mix",
        format!(
            "9 jobs: 2 chains x 4 jobs of {}-{} MiB stage-in ({} MiB per chain) + {} MiB gather; outputs 1/{} of input",
            MIN_IN / MIB,
            MAX_IN / MIB,
            CHAIN_TOTAL / MIB,
            GATHER_IN / MIB,
            OUT_DIV
        ),
    ));
    let phase =
        Duration::from_secs_f64(args.seconds / BEDS as f64 / if args.trace { 2.0 } else { 1.0 });
    let (setup, beds) = on_fresh_beds(
        &args.work,
        BEDS,
        |dir| build(dir, args.seed),
        |bed, _| measure(bed, args.trace, phase),
    )?;
    out.setup_s = setup;
    beds.iter().for_each(|b| out.tally.add(b.tally));
    let plain: Vec<&Iter> = beds.iter().flat_map(|b| b.plain.iter()).collect();
    let col = |its: &[&Iter], f: &dyn Fn(&Iter) -> f64| {
        median(&its.iter().map(|it| f(it)).collect::<Vec<_>>())
    };
    let makespan = col(&plain, &|it| it.makespan());
    out.unit_ms = makespan * 1e3;
    out.gibps = col(&plain, &|it| {
        it.staged_bytes as f64 / (1u64 << 30) as f64 / it.makespan()
    });
    out.ops_per_s = col(&plain, &|it| 2.0 * it.bodies.len() as f64 / it.makespan());
    out.named("makespan_s", "s", makespan);
    out.named(
        "durable_s",
        "s",
        col(&plain, &|it| (it.durable - it.t0).as_secs_f64()),
    );
    out.named("dag_runs", "count", plain.len() as f64);

    if args.trace {
        let jobs = dag(args.seed);
        let mut probe = ProbeStats::default();
        let mut submit = Vec::new();
        let mut peak = 0;
        let mut traced: Vec<&Iter> = Vec::new();
        let mut rec = Recorder::new(true, epoch);
        for t in beds.iter().filter_map(|b| b.traced.as_ref()) {
            probe.merge(t.probe.clone());
            submit.extend(t.submit_us.iter().copied());
            peak = peak.max(t.peak_chunk_workers);
            for it in &t.iters {
                record(&mut rec, &jobs, it, traced.len() as u64);
                traced.push(it);
            }
        }
        probe.report(&mut out);
        let traced_ms = col(&traced, &|it| it.makespan()) * 1e3;
        out.layer(
            "trace.overhead_pct",
            100.0 * (traced_ms - out.unit_ms) / out.unit_ms.max(1e-9),
        );
        let parse: Vec<f64> = traced
            .iter()
            .flat_map(|it| it.parse_us.iter().copied())
            .collect();
        out.layer("flow.parse_us", median(&parse));
        let spans = |name: &str| -> Vec<f64> {
            rec.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end - s.start) as f64 / 1e9)
                .collect()
        };
        out.layer("flow.stage_in_s.p50", median(&spans("flow.stage_in")));
        out.layer("flow.body_s.p50", median(&spans("body")));
        out.layer("flow.tail_s", median(&spans("flow.tail")));
        out.layer(
            "flow.wait_round_trips",
            col(&traced, &|it| it.wait_round_trips as f64),
        );
        out.layer(
            "flow.query_round_trips",
            col(&traced, &|it| it.query_round_trips as f64),
        );
        out.layer("gen.late_p99_us", pct(&spans("flow.submit"), 99.0) * 1e6);
        out.layer("replication.lag_peak_bytes", probe.lag_peak_bytes as f64);
        out.layer(
            "replication.replica_bytes",
            col(&traced, &|it| it.replica_bytes as f64),
        );
        out.layer("engine.submit_us", median(&submit));
        out.layer("transfer.peak_chunk_workers", peak as f64);
        let (enc, dec, per_task) = codec_probe(&executor_mix(&jobs));
        out.layer("proto.encode_ns", enc);
        out.layer("proto.decode_ns", dec);
        out.layer("proto.bytes_per_task", per_task);
        out.trace = Some(rec);
    }
    out.layer("engine.busy_rejects", out.tally.busy as f64);
    Ok(out)
}

/// The executor's own control-plane mix for one DAG: a submit and a
/// batch wait per stage-in leg.
fn executor_mix(jobs: &[JobPlan]) -> Vec<TaskMsgs> {
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let dst = format!("work/{}/in.dat", job.name);
            let src = format!("in/{}.dat", job.name);
            let spec = if job.node == 0 {
                copy(local("pfs", &src), local("bb", &dst))
            } else {
                copy(remote("n0", "pfs", &src), local("bb", &dst))
            };
            let id = 1000 + i as u64;
            let stats = TaskStats {
                state: TaskState::Finished,
                error: ErrorCode::Success,
                bytes_total: job.len,
                bytes_moved: job.len,
                wait_usec: 10,
                elapsed_usec: 10_000,
            };
            let tag = 2 * i as u64;
            TaskMsgs {
                submit: (tag, CtlRequest::SubmitTask { job_id: JOB, spec }),
                submitted: (tag, Response::TaskSubmitted { task_id: id }),
                wait: (
                    tag + 1,
                    CtlRequest::WaitAny {
                        task_ids: (1000..=id).collect(),
                        timeout_usec: 0,
                    },
                ),
                completed: (tag + 1, Response::TaskCompleted { task_id: id, stats }),
            }
        })
        .collect()
}

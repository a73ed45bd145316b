//! `small_requests`: staging of small seeded files inside one daemon
//! (`LocalOnly`), each task a submit followed by a wait on its id, one
//! in five followed by a query of a finished task. An open loop at a
//! fixed offered rate gives the latencies; a closed loop at a fixed
//! pipeline depth gives the throughput.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use norns_ipc::PipelinedCtl;
use norns_proto::{CtlRequest, ErrorCode, Response, TaskState};

use crate::node::{on_fresh_beds, put, Node, JOB};
use crate::ops::{
    codec_probe, copy, engine_probe, local, Outcome, Probe, Tally, TaskMsgs, WAIT_TIMEOUT_USEC,
};
use crate::trace::{Layer, Recorder};
use crate::util::{content, digest, file_digest, median, pct, us_between, wait_fds, Rng, Want};
use crate::Args;

/// Input files in the pool, and their size range.
const POOL: usize = 256;
const MIN_SIZE: u64 = 4 << 10;
const MAX_SIZE: u64 = 64 << 10;
/// Output slots a generator cycles through; a slot is reused only after
/// its previous output was verified and removed.
const SLOTS: usize = 512;
/// Open-loop offered rate (tasks/s): about half of the closed-loop
/// capacity a 2-vCPU x86-64 virtual machine reached in its slow periods
/// (2–4 k tasks/s; up to 15 k when the host was quiet), so the loop
/// stays below saturation either way.
pub const OPEN_RATE: f64 = 1000.0;
/// Closed-loop pipeline depth (tasks outstanding, over all threads).
pub const DEPTH: usize = 8;
/// Directories the output slots are spread over.
const OUT_DIRS: usize = 32;
/// One finished task in this many is followed by a query.
const QUERY_EVERY: u64 = 5;
/// Traced tasks whose messages feed the codec probe.
const MIX_CAP: usize = 4096;

struct Input {
    path: String,
    len: u64,
    digest: u64,
}

struct Bed {
    node: Node,
    inputs: Vec<Input>,
}

fn build(dir: &Path, seed: u64) -> io::Result<Bed> {
    let node = Node::spawn(dir, "n0", &["ds"], false, &["n0"])?;
    let mut rng = Rng::new(seed, 1);
    let mut inputs = Vec::with_capacity(POOL);
    for k in 0..POOL {
        let len = rng.range(MIN_SIZE, MAX_SIZE) as usize;
        let bytes = content(rng.next_u64(), len);
        let path = format!("in/f{k}");
        put(node.mount("ds"), &path, &bytes)?;
        inputs.push(Input {
            path,
            len: len as u64,
            digest: digest(&bytes),
        });
    }
    Ok(Bed { node, inputs })
}

struct Task {
    due: Instant,
    input: usize,
    slot: usize,
    /// The daemon's task id, once the submit is answered.
    id: u64,
    issue: (Instant, Instant),
    reply_poll: (Instant, Instant),
    wait_issue: (Instant, Instant),
    submit_msg: Option<(u64, CtlRequest)>,
    submitted_msg: Option<(u64, Response)>,
    wait_msg: Option<(u64, CtlRequest)>,
}

enum Pend {
    Submit(u64),
    Wait(u64),
    /// A query issued at the instant, expecting `bytes_total`.
    Query(Instant, u64),
}

#[derive(Default)]
struct Samples {
    submit_us: Vec<f64>,
    task_us: Vec<f64>,
    query_us: Vec<f64>,
    late_us: Vec<f64>,
    wait_usec: Vec<f64>,
    exec_usec: Vec<f64>,
    done: u64,
    polls: u64,
    responses: u64,
    poll_us: f64,
    tally: Tally,
    mix: Vec<TaskMsgs>,
    /// Completion instants and bytes of verified tasks.
    done_at: Vec<(Instant, u64)>,
}

/// One generator connection and the tasks it has in flight.
struct Generator<'a> {
    bed: &'a Bed,
    conn: PipelinedCtl,
    rng: Rng,
    rec: Recorder,
    tasks: HashMap<u64, Task>,
    pend: HashMap<u64, Pend>,
    free: VecDeque<usize>,
    /// The generator's input stream, which also names its output tree.
    stream: u64,
    last_done: Option<(u64, u64)>,
    seq: u64,
    s: Samples,
    buf: Vec<u8>,
}

impl<'a> Generator<'a> {
    fn new(bed: &'a Bed, seed: u64, stream: u64, rec: Recorder) -> io::Result<Self> {
        Ok(Generator {
            bed,
            conn: PipelinedCtl::connect(&bed.node.daemon.control_path)
                .map_err(crate::node::to_io)?,
            rng: Rng::new(seed, stream),
            rec,
            tasks: HashMap::new(),
            pend: HashMap::new(),
            free: (0..SLOTS).collect(),
            stream,
            last_done: None,
            seq: 0,
            s: Samples::default(),
            buf: Vec::new(),
        })
    }

    /// Output path of a slot. Slots are spread over directories so
    /// creates and unlinks do not all queue on one directory lock.
    fn slot_path(&self, slot: usize) -> String {
        format!("out{}/{}/s{slot}", self.stream, slot % OUT_DIRS)
    }

    /// Issue one task's submit, due at `due`.
    fn submit(&mut self, due: Instant) {
        self.s.tally.attempted += 1;
        let input = self.rng.range(0, POOL as u64 - 1) as usize;
        let Some(slot) = self.free.pop_front() else {
            // Every slot holds an unanswered task: the daemon is this
            // far behind, so the request misses any limit.
            self.fail_latency(true);
            return;
        };
        let spec = copy(
            local("ds", &self.bed.inputs[input].path),
            local("ds", &self.slot_path(slot)),
        );
        let req = CtlRequest::SubmitTask { job_id: JOB, spec };
        let t0 = Instant::now();
        let r = self.conn.issue(&req, None);
        let t1 = Instant::now();
        self.s.late_us.push(us_between(due, t0));
        let Ok(tag) = r else {
            self.free.push_back(slot);
            self.fail_latency(true);
            return;
        };
        let seq = self.seq;
        self.seq += 1;
        let keep = self.rec.on && self.s.mix.len() < MIX_CAP;
        self.pend.insert(tag, Pend::Submit(seq));
        self.tasks.insert(
            seq,
            Task {
                due,
                input,
                slot,
                id: 0,
                issue: (t0, t1),
                reply_poll: (t1, t1),
                wait_issue: (t1, t1),
                submit_msg: keep.then_some((tag, req)),
                submitted_msg: None,
                wait_msg: None,
            },
        );
    }

    fn fail_latency(&mut self, submit_too: bool) {
        self.s.tally.failed += 1;
        if submit_too {
            self.s.submit_us.push(f64::INFINITY);
        }
        self.s.task_us.push(f64::INFINITY);
    }

    /// Collect responses (blocking up to `block`, or not at all) and
    /// act on them. Returns how many tasks reached an end.
    fn drain(&mut self, block: Option<Duration>) -> io::Result<usize> {
        let t0 = Instant::now();
        let r = match block {
            None => self.conn.try_drain(),
            Some(d) => self.conn.poll(d),
        };
        let t1 = Instant::now();
        let resps = r.map_err(crate::node::to_io)?;
        self.s.polls += 1;
        self.s.responses += resps.len() as u64;
        self.s.poll_us += us_between(t0, t1);
        let mut ended = 0;
        for (tag, resp) in resps {
            ended += self.on_response(tag, resp, (t0, t1));
        }
        Ok(ended)
    }

    fn on_response(&mut self, tag: u64, resp: Response, poll: (Instant, Instant)) -> usize {
        match self.pend.remove(&tag) {
            Some(Pend::Submit(seq)) => {
                let task = self.tasks.get_mut(&seq).expect("task of a pending submit");
                task.reply_poll = poll;
                let due = task.due;
                match resp {
                    Response::TaskSubmitted { task_id } => {
                        task.id = task_id;
                        self.s.submit_us.push(us_between(due, poll.1));
                        if task.submit_msg.is_some() {
                            task.submitted_msg = Some((tag, resp.clone()));
                        }
                        let t2 = Instant::now();
                        let r = self.conn.issue_wait(task_id, WAIT_TIMEOUT_USEC);
                        let t3 = Instant::now();
                        task.wait_issue = (t2, t3);
                        match r {
                            Ok(wtag) => {
                                if task.submit_msg.is_some() {
                                    task.wait_msg = Some((
                                        wtag,
                                        CtlRequest::WaitTask {
                                            task_id,
                                            timeout_usec: WAIT_TIMEOUT_USEC,
                                        },
                                    ));
                                }
                                self.pend.insert(wtag, Pend::Wait(seq));
                                0
                            }
                            Err(_) => self.end_failed(seq, false),
                        }
                    }
                    other => {
                        if matches!(
                            other,
                            Response::Error {
                                code: ErrorCode::Busy,
                                ..
                            }
                        ) {
                            self.s.tally.busy += 1;
                        }
                        self.end_failed(seq, true)
                    }
                }
            }
            Some(Pend::Wait(seq)) => match resp {
                Response::TaskStatus(stats) if stats.state == TaskState::Finished => {
                    let task = self.tasks.remove(&seq).expect("task of a pending wait");
                    self.finished(seq, task, tag, stats, poll);
                    1
                }
                _ => self.end_failed(seq, false),
            },
            Some(Pend::Query(issued, want)) => {
                self.s.query_us.push(us_between(issued, poll.1));
                match resp {
                    Response::TaskStatus(st)
                        if st.state == TaskState::Finished && st.bytes_total == want => {}
                    Response::TaskStatus(_) => self.s.tally.mismatches += 1,
                    _ => self.s.tally.failed += 1,
                }
                0
            }
            None => {
                self.s.tally.failed += 1;
                0
            }
        }
    }

    fn end_failed(&mut self, seq: u64, submit_too: bool) -> usize {
        let task = self.tasks.remove(&seq).expect("task of a failed request");
        self.free.push_back(task.slot);
        self.fail_latency(submit_too);
        1
    }

    fn finished(
        &mut self,
        seq: u64,
        task: Task,
        tag: u64,
        stats: norns_proto::TaskStats,
        poll: (Instant, Instant),
    ) {
        let input = &self.bed.inputs[task.input];
        self.s.task_us.push(us_between(task.due, poll.1));
        self.s.wait_usec.push(stats.wait_usec as f64);
        self.s.exec_usec.push(stats.elapsed_usec as f64);
        let out = self.bed.node.mount("ds").join(self.slot_path(task.slot));
        match file_digest(&out, &mut self.buf) {
            Ok((len, d))
                if len == input.len && d == input.digest && stats.bytes_moved == input.len =>
            {
                self.s.done += 1;
                self.s.done_at.push((poll.1, len));
            }
            _ => self.s.tally.mismatches += 1,
        }
        // The next task on this slot creates a fresh file rather than
        // truncating this one.
        let _ = std::fs::remove_file(&out);
        self.free.push_back(task.slot);
        if self.rec.on {
            let root = Some(
                self.rec
                    .span("task", Layer::Unit, None, seq, task.due, poll.1),
            );
            let r = &mut self.rec;
            r.span("gen.late", Layer::Gen, root, seq, task.due, task.issue.0);
            r.span(
                "client.issue",
                Layer::Client,
                root,
                seq,
                task.issue.0,
                task.issue.1,
            );
            r.span(
                "client.poll",
                Layer::Client,
                root,
                seq,
                task.reply_poll.0,
                task.reply_poll.1,
            );
            r.span(
                "gen.turn",
                Layer::Gen,
                root,
                seq,
                task.reply_poll.1,
                task.wait_issue.0,
            );
            r.span(
                "client.issue",
                Layer::Client,
                root,
                seq,
                task.wait_issue.0,
                task.wait_issue.1,
            );
            let exec_start = r.derived(
                "transfer.exec",
                Layer::Transfer,
                root,
                seq,
                stats.elapsed_usec,
                poll.0,
            );
            r.derived(
                "engine.queue",
                Layer::Engine,
                root,
                seq,
                stats.wait_usec,
                exec_start,
            );
            r.span("client.poll", Layer::Client, root, seq, poll.0, poll.1);
            if let (Some(submit), Some(submitted), Some(wait)) =
                (task.submit_msg, task.submitted_msg, task.wait_msg)
            {
                self.s.mix.push(TaskMsgs {
                    submit,
                    submitted,
                    wait,
                    completed: (tag, Response::TaskStatus(stats.clone())),
                });
            }
        }
        // Reads of the task table beside the writes: query the task
        // that finished before this one.
        if self.s.done.is_multiple_of(QUERY_EVERY) {
            if let Some((id, len)) = self.last_done {
                self.s.tally.attempted += 1;
                let t = Instant::now();
                match self.conn.issue_query(id) {
                    Ok(qtag) => {
                        self.pend.insert(qtag, Pend::Query(t, len));
                    }
                    Err(_) => self.s.tally.failed += 1,
                }
            }
        }
        self.last_done = Some((task.id, input.len));
    }

    /// Count everything still unanswered as failed.
    fn abandon(&mut self) {
        let n = self.tasks.len();
        for _ in 0..n {
            self.fail_latency(false);
        }
        self.tasks.clear();
        self.pend.clear();
    }
}

/// Open loop: Poisson arrivals at `rate`, each task timed from its due
/// time. One thread, one connection.
fn open_loop(
    bed: &Bed,
    seed: u64,
    rate: f64,
    dur: Duration,
    rec: Recorder,
) -> io::Result<Generator<'_>> {
    let mut d = Generator::new(bed, seed, 2, rec)?;
    let mut arrivals = Rng::new(seed, 3);
    let fd = d.conn.as_raw_fd();
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + dur;
    let gap = |r: &mut Rng| Duration::from_secs_f64(r.exp(1.0 / rate));
    let mut next_due = start + gap(&mut arrivals);
    let give_up = end + Duration::from_micros(WAIT_TIMEOUT_USEC) + Duration::from_secs(1);
    loop {
        let now = Instant::now();
        if next_due < end && next_due <= now {
            d.submit(next_due);
            next_due += gap(&mut arrivals);
            continue;
        }
        d.drain(None)?;
        if next_due >= end && d.pend.is_empty() {
            break;
        }
        let now = Instant::now();
        if now > give_up {
            d.abandon();
            break;
        }
        let wait = if next_due < end {
            next_due.saturating_duration_since(now)
        } else {
            Duration::from_millis(20)
        };
        if !wait.is_zero() {
            wait_fds(
                &[Want {
                    fd,
                    read: true,
                    write: false,
                }],
                wait,
            )?;
        }
    }
    Ok(d)
}

/// Closed loop: `DEPTH` tasks outstanding on one connection, refilled
/// as tasks end. Returns the loop's start and its generator.
fn closed_loop(
    bed: &Bed,
    seed: u64,
    dur: Duration,
    epoch: Instant,
) -> io::Result<(Instant, Generator<'_>)> {
    let start = Instant::now();
    let end = start + dur;
    let mut d = Generator::new(bed, seed, 10, Recorder::new(false, epoch))?;
    for _ in 0..DEPTH {
        d.submit(Instant::now());
    }
    let give_up = end + Duration::from_micros(WAIT_TIMEOUT_USEC) + Duration::from_secs(1);
    loop {
        let ended = d.drain(Some(Duration::from_millis(20)))?;
        let now = Instant::now();
        if now < end {
            for _ in 0..ended {
                d.submit(Instant::now());
            }
        } else if d.pend.is_empty() {
            break;
        } else if now > give_up {
            d.abandon();
            break;
        }
    }
    Ok((start, d))
}

/// Closed-loop throughput samples: tasks/s and bytes/s in each full
/// `WINDOW` of the loop, from the verified completions.
fn closed_windows(d: &Generator, start: Instant, dur: Duration) -> Vec<(f64, f64)> {
    let n = (dur.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
    let mut w = vec![(0.0, 0.0); n];
    for (t, bytes) in &d.s.done_at {
        let i = (t.saturating_duration_since(start).as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if i < n {
            w[i].0 += 1.0;
            w[i].1 += *bytes as f64;
        }
    }
    let secs = WINDOW.as_secs_f64();
    w.into_iter().map(|(c, b)| (c / secs, b / secs)).collect()
}

/// Closed-loop throughput is sampled per window of this length.
const WINDOW: Duration = Duration::from_millis(200);

/// Beds each measurement is spread over.
const BEDS: usize = 3;

/// One bed's share of the run.
struct BedSummary {
    open: Samples,
    windows: Vec<(f64, f64)>,
    /// (polls, µs inside them, responses) of the closed loop.
    polls: (u64, f64, u64),
    tally: Tally,
    traced: Option<TracedBed>,
}

struct TracedBed {
    s: Samples,
    rec: Recorder,
    probe: crate::ops::ProbeStats,
    submit_us: Vec<f64>,
}

fn measure(
    bed: &Bed,
    args: &Args,
    k: usize,
    phase: Duration,
    epoch: Instant,
) -> io::Result<BedSummary> {
    let seed = args.seed ^ (k as u64) << 32;
    let open = open_loop(bed, seed, OPEN_RATE, phase, Recorder::new(false, epoch))?;
    let (start, closed) = closed_loop(bed, seed, phase, epoch)?;
    let windows = closed_windows(&closed, start, phase);
    let mut tally = open.s.tally;
    tally.add(closed.s.tally);
    let polls = (closed.s.polls, closed.s.poll_us, closed.s.responses);
    let mut summary = BedSummary {
        open: open.s,
        windows,
        polls,
        tally,
        traced: None,
    };
    if !args.trace {
        return Ok(summary);
    }
    let engine = bed.node.daemon.engine();
    let probe = Probe::start(
        vec![(bed.node.daemon.control_path.clone(), Arc::clone(engine))],
        Duration::from_millis(2),
    );
    let traced = open_loop(
        bed,
        seed ^ 0x7,
        OPEN_RATE,
        phase,
        Recorder::new(true, epoch),
    )?;
    let probe = probe.finish();
    summary.tally.add(traced.s.tally);
    // Direct `Engine::submit` on the live daemon's engine.
    let input = &bed.inputs[0];
    let (submit_us, ptally) = engine_probe(
        engine,
        "ds",
        &input.path,
        bed.node.mount("ds"),
        (input.len, input.digest),
        64,
    );
    summary.tally.add(ptally);
    summary.traced = Some(TracedBed {
        s: traced.s,
        rec: traced.rec,
        probe,
        submit_us,
    });
    Ok(summary)
}

pub fn run(args: &Args, epoch: Instant) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    out.env.push(("open_rate_per_s", format!("{OPEN_RATE}")));
    out.env
        .push(("closed_depth", format!("{DEPTH} on one connection")));
    out.env.push((
        "file_mix",
        format!(
            "{POOL} files, uniform {}-{} KiB",
            MIN_SIZE >> 10,
            MAX_SIZE >> 10
        ),
    ));
    let phases = if args.trace { 3.0 } else { 2.0 };
    let phase = Duration::from_secs_f64(args.seconds / BEDS as f64 / phases);
    let (setup, beds) = on_fresh_beds(
        &args.work,
        BEDS,
        |dir| build(dir, args.seed),
        |bed, k| measure(bed, args, k, phase, epoch),
    )?;
    out.setup_s = setup;
    let cat = |f: &dyn Fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
        beds.iter()
            .flat_map(|b| f(&b.open).iter().copied())
            .collect()
    };
    let (submit_us, task_us, query_us) = (
        cat(&|s| &s.submit_us),
        cat(&|s| &s.task_us),
        cat(&|s| &s.query_us),
    );
    let windows: Vec<(f64, f64)> = beds
        .iter()
        .flat_map(|b| b.windows.iter().copied())
        .collect();
    let tasks_per_s = median(&windows.iter().map(|w| w.0).collect::<Vec<_>>());
    let bytes_per_s = median(&windows.iter().map(|w| w.1).collect::<Vec<_>>());
    let task_p50 = median(&task_us);
    out.named("submit_p50_us", "us", median(&submit_us));
    out.named("submit_p99_us", "us", pct(&submit_us, 99.0));
    out.named("task_p50_us", "us", task_p50);
    out.named("task_p99_us", "us", pct(&task_us, 99.0));
    out.named("query_p50_us", "us", median(&query_us));
    out.named("tasks_per_s", "1/s", tasks_per_s);
    out.named("open_loop_tasks", "count", task_us.len() as f64);
    out.named("closed_loop_windows", "count", windows.len() as f64);
    out.unit_ms = task_p50 / 1e3;
    out.gibps = bytes_per_s / (1u64 << 30) as f64;
    out.ops_per_s = tasks_per_s;
    let polls = beds.iter().fold((0u64, 0f64, 0u64), |a, b| {
        (a.0 + b.polls.0, a.1 + b.polls.1, a.2 + b.polls.2)
    });
    beds.iter().for_each(|b| out.tally.add(b.tally));

    if args.trace {
        let mut probe = crate::ops::ProbeStats::default();
        let mut rec = Recorder::new(true, epoch);
        let mut s = Samples::default();
        let mut submit = Vec::new();
        for b in beds.into_iter().filter_map(|b| b.traced) {
            probe.merge(b.probe);
            rec.absorb(b.rec);
            submit.extend(b.submit_us);
            s.mix.extend(b.s.mix);
            s.task_us.extend(b.s.task_us);
            s.wait_usec.extend(b.s.wait_usec);
            s.exec_usec.extend(b.s.exec_usec);
            s.late_us.extend(b.s.late_us);
        }
        probe.report(&mut out);
        let (enc, dec, per_task) = codec_probe(&s.mix);
        out.layer("proto.encode_ns", enc);
        out.layer("proto.decode_ns", dec);
        out.layer("proto.bytes_per_task", per_task);
        out.layer("client.issue_us", rec.median_us("client.issue"));
        out.layer("client.poll_us", polls.1 / polls.0.max(1) as f64);
        out.layer(
            "client.resp_per_poll",
            polls.2 as f64 / polls.0.max(1) as f64,
        );
        out.layer("engine.submit_us", median(&submit));
        out.layer("engine.queue_wait_p50_us", median(&s.wait_usec));
        out.layer("engine.queue_wait_p99_us", pct(&s.wait_usec, 99.0));
        out.layer("engine.exec_p50_us", median(&s.exec_usec));
        out.layer("transfer.exec_ms.le1m", median(&s.exec_usec) / 1e3);
        out.layer("gen.late_p99_us", pct(&s.late_us, 99.0));
        let traced_p50 = median(&s.task_us);
        out.layer(
            "trace.overhead_pct",
            100.0 * (traced_p50 - task_p50) / task_p50.max(1e-9),
        );
        out.trace = Some(rec);
    }
    out.layer("engine.busy_rejects", out.tally.busy as f64);
    Ok(out)
}

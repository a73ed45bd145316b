//! perfbench — one seeded, layer-traced benchmark of the live urd
//! daemon, driven only through its public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small_requests --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Workloads: `small_requests`, `bulk_stage`, `wan_stage`, `workflow`
//! (see `perfbench/README.md`). With `--trace 0` the last line of
//! standard output is the JSON result with the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a traced run. Earlier
//! lines print the environment stamp and every metric by name and unit.
//! Everything the run writes stays under `.perfbench/` in the current
//! directory. Exit status 1 means an output did not match its digest.

mod bulk;
mod flow;
mod node;
mod ops;
mod shaper;
mod small;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ops::Outcome;
use trace::Layer;
use util::{json_num, json_str};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallRequests,
    BulkStage,
    WanStage,
    Workflow,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "small_requests" => Workload::SmallRequests,
            "bulk_stage" => Workload::BulkStage,
            "wan_stage" => Workload::WanStage,
            "workflow" => Workload::Workflow,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SmallRequests => "small_requests",
            Workload::BulkStage => "bulk_stage",
            Workload::WanStage => "wan_stage",
            Workload::Workflow => "workflow",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Working directory of this run (relative, under `.perfbench/`).
    pub work: PathBuf,
}

/// End-to-end metrics every workload reports, from untraced runs.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("unit_p50_ms", "ms"),
    ("gibps", "GiB/s"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// cross reports 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("proto.bytes_per_task", "B"),
    ("client.issue_us", "us"),
    ("client.poll_us", "us"),
    ("client.resp_per_poll", "count"),
    ("daemon.ping_rtt_p50_us", "us"),
    ("daemon.ping_rtt_p99_us", "us"),
    ("engine.submit_us", "us"),
    ("engine.queue_wait_p50_us", "us"),
    ("engine.queue_wait_p99_us", "us"),
    ("engine.exec_p50_us", "us"),
    ("engine.pending_peak", "count"),
    ("engine.parked_waits_peak", "count"),
    ("engine.busy_rejects", "count"),
    ("transfer.exec_ms.le1m", "ms"),
    ("transfer.exec_ms.le16m", "ms"),
    ("transfer.exec_ms.gt16m", "ms"),
    ("transfer.peak_chunk_workers", "count"),
    ("remote.push_exec_ms.le1m", "ms"),
    ("remote.push_exec_ms.le16m", "ms"),
    ("remote.push_exec_ms.gt16m", "ms"),
    ("remote.pull_exec_ms.le1m", "ms"),
    ("remote.pull_exec_ms.le16m", "ms"),
    ("remote.pull_exec_ms.gt16m", "ms"),
    ("remote.queue_wait_us", "us"),
    ("shaper.segments_per_mib.up", "count/MiB"),
    ("shaper.segments_per_mib.down", "count/MiB"),
    ("shaper.conns_opened", "count"),
    ("shaper.rtt_us", "us"),
    ("replication.lag_peak_bytes", "B"),
    ("replication.replica_bytes", "B"),
    ("flow.parse_us", "us"),
    ("flow.stage_in_s.p50", "s"),
    ("flow.body_s.p50", "s"),
    ("flow.tail_s", "s"),
    ("flow.wait_round_trips", "count"),
    ("flow.query_round_trips", "count"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("unaccounted", "%"),
    ("self.gen_pct", "%"),
    ("self.client_pct", "%"),
    ("self.engine_pct", "%"),
    ("self.transfer_pct", "%"),
    ("self.remote_pct", "%"),
    ("self.flow_pct", "%"),
    ("self.body_pct", "%"),
];

fn parse_args() -> Result<(Workload, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.unwrap_or(1),
        seconds.unwrap_or(10.0),
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload small_requests|bulk_stage|wan_stage|workflow \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let base = PathBuf::from(".perfbench");
    let work = base.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        work: work.clone(),
    };
    let epoch = Instant::now();
    let result = match workload {
        Workload::SmallRequests => small::run(&args, epoch),
        Workload::BulkStage => bulk::run(&args, epoch, false),
        Workload::WanStage => bulk::run(&args, epoch, true),
        Workload::Workflow => flow::run(&args, epoch),
    };
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            return ExitCode::from(3);
        }
    };
    report(&args, out, &base)
}

fn report(args: &Args, mut out: Outcome, base: &std::path::Path) -> ExitCode {
    let mut env: Vec<(&str, String)> = vec![
        ("workload", args.workload.name().into()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("nproc", util::nproc().to_string()),
        ("kernel", util::kernel()),
        ("git_rev", util::git_rev()),
    ];
    env.append(&mut out.env);
    // Every result carries the same stamp; knobs a workload lacks say so.
    for key in [
        "open_rate_per_s",
        "closed_depth",
        "shaper_rtt_us",
        "file_mix",
    ] {
        if !env.iter().any(|(k, _)| *k == key) {
            env.push((key, "none".into()));
        }
    }
    let env_json = format!(
        "{{{}}}",
        env.iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("env {env_json}");

    let setup = util::median(&out.setup_s);
    let e2e = [setup, out.unit_ms, out.gibps, out.ops_per_s];
    for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
        println!("e2e {name:<28} {v:>16.4} {unit}");
    }
    for (name, unit, v) in &out.named {
        println!("e2e {name:<28} {v:>16.4} {unit}");
    }

    if let Some(rec) = &out.trace {
        for (layer, share) in rec.self_shares() {
            let key = match layer {
                Layer::Unit => "unaccounted".to_string(),
                l => format!("self.{}_pct", l.name()),
            };
            out.layers.insert(key, share);
        }
        let dir = base.join("trace");
        let path = dir.join(format!("{}-seed{}.spans", args.workload.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| rec.write(&path)) {
            Ok(()) => println!("spans {} ({} spans)", path.display(), rec.spans.len()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            let v = out.layers.get(name).copied().unwrap_or(0.0);
            println!("layer {name:<32} {v:>16.4} {unit}");
        }
    }

    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = out.layers.get(*name).copied().unwrap_or(0.0);
                metric_json(name, unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|((name, unit), v)| metric_json(name, unit, v))
            .collect()
    };
    let t = out.tally;
    let correct = t.mismatches == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed,
        metrics.join(", ")
    );
    let _ = std::fs::create_dir_all(base.join("results")).and_then(|_| {
        std::fs::write(
            base.join("results").join(format!(
                "{}-seed{}-trace{}.json",
                args.workload.name(),
                args.seed,
                args.trace as u8
            )),
            format!("{{\"env\": {env_json}, \"result\": {line}}}\n"),
        )
    });
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} staged outputs did not match their digests",
            t.mismatches
        );
        ExitCode::from(1)
    }
}

fn metric_json(name: &str, unit: &str, v: f64) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json_str(name),
        json_num(v),
        json_str(unit)
    )
}

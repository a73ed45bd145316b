//! Sim-vs-real differential test: the same job set, submitted to the
//! simulated urd's `norns::TaskQueue` and to the real `norns_ipc`
//! engine, must dispatch in the *same order* under every shared
//! arbitration policy. This is the contract PR 1 extracted the
//! `norns-sched` crate for — if the two worlds ever disagree, a
//! workflow tuned in the simulator would behave differently on live
//! daemons.
//!
//! Ordering is observed without races: the real engine runs **one**
//! worker pinned by a plug task while the whole set is submitted, so
//! every arbitration decision sees the full pending set, exactly like
//! the sim-side dispatch loop. The set is submitted only once the
//! worker holds the plug, and the plug pulls from a peer that never
//! answers, so it cannot finish before the last submission however
//! fast the copy path is; closing that peer's listener releases it.
//! Dispatch order is then recovered from `wait_usec` (submission →
//! first worker touch): with one worker, consecutive dispatches are
//! separated by a whole multi-MiB copy, orders of magnitude above the
//! submission loop's skew.

use std::fs;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

use norns::{JobId, TaskId, TaskQueue};
use norns_ipc::{Engine, EngineConfig};
use norns_proto::{BackendKind, DataspaceDesc, ResourceDesc, TaskOp, TaskSpec, TaskState};
use norns_sched::{ArbitrationPolicy, Fcfs, JobFairShare, ShortestFirst};
use simcore::SimTime;

/// (job, bytes) submission order shared by both worlds. Sizes are
/// distinct so SJF has a unique order, and jobs interleave so
/// fair-share differs from FCFS.
const WORKLOAD: [(u64, u64); 8] = [
    (1, 24 << 20),
    (1, 18 << 20),
    (2, 22 << 20),
    (1, 28 << 20),
    (3, 16 << 20),
    (2, 26 << 20),
    (3, 20 << 20),
    (2, 30 << 20),
];

/// The plug occupying the real engine's single worker while the set is
/// submitted; mirrored in the sim so policies with history (fair
/// share) see identical service sequences. `PLUG_BYTES` is the sim
/// plug's size; fair share ranks by service recency, not bytes.
const PLUG_JOB: u64 = 0;
const PLUG_BYTES: u64 = 96 << 20;

type SimPolicy = Box<dyn ArbitrationPolicy<JobId, TaskId, SimTime>>;
type IpcPolicy = Box<dyn ArbitrationPolicy<u64, u64, u64>>;

/// Dispatch order of the workload on the simulated queue (task index
/// per WORKLOAD position).
fn sim_order(policy: SimPolicy) -> Vec<usize> {
    let mut q = TaskQueue::new(1, policy);
    // Plug: enqueued and dispatched before the rest exists, exactly
    // like the real engine's idle worker grabs it.
    q.enqueue(TaskId(999), JobId(PLUG_JOB), PLUG_BYTES, SimTime::ZERO);
    assert_eq!(q.dispatch().unwrap().task, TaskId(999));
    for (i, (job, bytes)) in WORKLOAD.iter().enumerate() {
        q.enqueue(TaskId(i as u64), JobId(*job), *bytes, SimTime::ZERO);
    }
    q.finish(); // plug completes; arbitration begins over the full set
    let mut order = Vec::new();
    while let Some(t) = q.dispatch() {
        order.push(t.task.0 as usize);
        q.finish();
    }
    order
}

/// Dispatch order of the same workload on the real engine.
fn real_order(policy: IpcPolicy, tag: &str) -> Vec<usize> {
    let root: PathBuf =
        std::env::temp_dir().join(format!("norns-differential-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    let engine: Arc<Engine> = Engine::with_config(
        EngineConfig {
            workers: 1,
            chunk_size: 1 << 30, // keep every copy monolithic
            ..EngineConfig::default()
        },
        policy,
    );
    engine
        .register_dataspace(DataspaceDesc {
            nsid: "tmp0".into(),
            kind: BackendKind::PosixFilesystem,
            mount: root.join("ds").to_string_lossy().into_owned(),
            quota: 0,
            tracked: false,
        })
        .unwrap();
    let mount = root.join("ds");
    for (i, (_, bytes)) in WORKLOAD.iter().enumerate() {
        fs::write(mount.join(format!("in{i}.dat")), vec![2u8; *bytes as usize]).unwrap();
    }
    let copy = |src: &str, dst: &str| {
        TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: src.into(),
            },
            Some(ResourceDesc::PosixPath {
                nsid: "tmp0".into(),
                path: dst.into(),
            }),
        )
    };
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    engine.register_peer("silent", silent.local_addr().unwrap().to_string());
    let plug = engine
        .submit(
            PLUG_JOB,
            TaskSpec::new(
                TaskOp::Copy,
                ResourceDesc::RemotePath {
                    host: "silent".into(),
                    nsid: "tmp0".into(),
                    path: "plug.src".into(),
                },
                Some(ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "plug.dst".into(),
                }),
            ),
            None,
        )
        .unwrap();
    // The worker must hold the plug before the rest exists, or its
    // first pick would already arbitrate among part of the set.
    while engine.query(plug).unwrap().state == TaskState::Pending {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut ids = Vec::new();
    for (i, (job, _)) in WORKLOAD.iter().enumerate() {
        ids.push(
            engine
                .submit(
                    *job,
                    copy(&format!("in{i}.dat"), &format!("out{i}.dat")),
                    None,
                )
                .unwrap(),
        );
    }
    // Every task is pending: closing the listener resets the plug's
    // connection, its pull fails, and arbitration begins.
    drop(silent);
    engine.wait(plug, 0).unwrap();
    let mut touched: Vec<(u64, usize)> = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let stats = engine.wait(*id, 0).unwrap();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_total, WORKLOAD[i].1, "size estimate feeds SJF");
        touched.push((stats.wait_usec, i));
    }
    engine.shutdown();
    let _ = fs::remove_dir_all(&root);
    touched.sort();
    touched.into_iter().map(|(_, i)| i).collect()
}

#[test]
fn fcfs_orders_identically_in_sim_and_real() {
    let sim = sim_order(Box::new(Fcfs));
    assert_eq!(sim, vec![0, 1, 2, 3, 4, 5, 6, 7], "FCFS = submission order");
    assert_eq!(real_order(Box::new(Fcfs), "fcfs"), sim);
}

#[test]
fn fair_share_orders_identically_in_sim_and_real() {
    let sim = sim_order(Box::new(JobFairShare::default()));
    assert_ne!(
        sim,
        vec![0, 1, 2, 3, 4, 5, 6, 7],
        "the workload must discriminate fair-share from FCFS"
    );
    assert_eq!(
        real_order(Box::new(JobFairShare::default()), "fair"),
        sim,
        "fair-share service history must evolve identically in both worlds"
    );
}

#[test]
fn sjf_orders_identically_in_sim_and_real() {
    let sim = sim_order(Box::new(ShortestFirst));
    // Distinct sizes: SJF order is the size-sorted permutation.
    let mut by_size: Vec<usize> = (0..WORKLOAD.len()).collect();
    by_size.sort_by_key(|&i| WORKLOAD[i].1);
    assert_eq!(sim, by_size);
    assert_eq!(real_order(Box::new(ShortestFirst), "sjf"), sim);
}

/// Sim-vs-real differential for the *mapping* semantics: a `scatter`
/// stage-in must place each enumerated child on exactly one node —
/// and on the *same* node — in both worlds (mirroring the simulator's
/// `scatter_mapping_splits_children_across_nodes`), never
/// replicating the way real-mode `scatter` used to when it degraded
/// to `all`.
mod scatter_gather {
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    use norns::{HasNorns, NornsWorld, TaskCompletion};
    use norns_flow::{FlowConfig, FlowJobState, JobBody, NodeSpec, WorkflowExecutor};
    use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon};
    use norns_proto::{BackendKind, DataspaceDesc};
    use simcore::{CompletedFlow, FluidModel, FluidSystem, Sim, SimDuration};
    use simstore::{Cred, Mode};
    use slurm_sim::{submit_script, HasSlurm, JobState, SchedConfig, Slurmctld};

    const NODES: usize = 2;
    const CHILDREN: [&str; 4] = ["part0.dat", "part1.dat", "part2.dat", "part3.dat"];
    const SCRIPT: &str = "#SBATCH --job-name=sg\n\
                          #SBATCH --nodes=2\n\
                          #NORNS stage_in lustre://case pmdk0://case scatter\n";

    struct Model {
        world: NornsWorld,
        ctld: Slurmctld,
    }

    impl FluidModel for Model {
        fn fluid_mut(&mut self) -> &mut FluidSystem {
            &mut self.world.fluid
        }
        fn on_flow_complete(sim: &mut Sim<Self>, done: CompletedFlow) {
            norns::handle_flow_complete(sim, done);
        }
    }

    impl HasNorns for Model {
        fn norns_mut(&mut self) -> &mut NornsWorld {
            &mut self.world
        }
        fn on_task_complete(sim: &mut Sim<Self>, completion: TaskCompletion) {
            slurm_sim::handle_task_complete(sim, &completion);
        }
    }

    impl HasSlurm for Model {
        fn ctld_mut(&mut self) -> &mut Slurmctld {
            &mut self.ctld
        }
    }

    /// Which children each node holds once the simulated job reaches
    /// Running (stage-in complete), as `node → sorted child names`.
    fn sim_placement() -> Vec<Vec<String>> {
        let tb = cluster::nextgenio_quiet(NODES);
        let ctld = Slurmctld::new(NODES, SchedConfig::default());
        let mut sim = Sim::new(
            Model {
                world: tb.world,
                ctld,
            },
            7,
        );
        for n in 0..NODES {
            norns::sim::ops::register_dataspace(&mut sim, n, "pmdk0", "pmdk0", false).unwrap();
            norns::sim::ops::register_dataspace(&mut sim, n, "lustre", "lustre", false).unwrap();
        }
        let cred = Cred::new(1000, 1000);
        {
            let t = sim.model.world.storage.resolve("lustre").unwrap();
            for c in CHILDREN {
                sim.model
                    .world
                    .storage
                    .ns_mut(t, None)
                    .write_file(&format!("case/{c}"), 1 << 20, &cred, Mode(0o644))
                    .unwrap();
            }
        }
        let id = submit_script(
            &mut sim,
            SCRIPT,
            cred,
            slurm_sim::JobBody::Fixed(SimDuration::from_secs(60)),
        )
        .unwrap();
        while sim.model.ctld.job(id).unwrap().state != JobState::Running && sim.step() {}
        assert_eq!(sim.model.ctld.job(id).unwrap().state, JobState::Running);
        let t = sim.model.world.storage.resolve("pmdk0").unwrap();
        (0..NODES)
            .map(|n| {
                CHILDREN
                    .iter()
                    .filter(|c| {
                        sim.model
                            .world
                            .storage
                            .ns(t, Some(n))
                            .exists(&format!("case/{c}"))
                    })
                    .map(|c| c.to_string())
                    .collect()
            })
            .collect()
    }

    fn spawn(root: &Path, name: &str) -> UrdDaemon {
        UrdDaemon::spawn(
            DaemonConfig::in_dir(root.join(name).join("sockets"))
                .with_chunk_size(1 << 30)
                .with_data_addr("127.0.0.1:0"),
        )
        .unwrap()
    }

    fn register(daemon: &UrdDaemon, nsid: &str, mount: &Path) {
        let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
        ctl.register_dataspace(DataspaceDesc {
            nsid: nsid.into(),
            kind: BackendKind::PosixFilesystem,
            mount: mount.to_string_lossy().into_owned(),
            quota: 0,
            tracked: false,
        })
        .unwrap();
    }

    /// The same workload against two live daemons: node 0 hosts the
    /// shared `lustre` tier plus its node-local `pmdk0`, node 1 its
    /// own `pmdk0` (same nsid, own mount — the node-local pattern).
    fn real_placement() -> Vec<Vec<String>> {
        let root: PathBuf =
            std::env::temp_dir().join(format!("norns-diff-scatter-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        let daemon_a = spawn(&root, "n0");
        let daemon_b = spawn(&root, "n1");
        let lustre = root.join("n0/lustre");
        let pmdk = [root.join("n0/pmdk"), root.join("n1/pmdk")];
        register(&daemon_a, "lustre", &lustre);
        register(&daemon_a, "pmdk0", &pmdk[0]);
        register(&daemon_b, "pmdk0", &pmdk[1]);
        fs::create_dir_all(lustre.join("case")).unwrap();
        for c in CHILDREN {
            fs::write(lustre.join("case").join(c), vec![7u8; 1 << 10]).unwrap();
        }
        let mut exec = WorkflowExecutor::new(FlowConfig::default());
        exec.add_node(NodeSpec {
            name: "n0".into(),
            control_path: daemon_a.control_path.clone(),
            dataspaces: vec!["lustre".into(), "pmdk0".into()],
        })
        .unwrap();
        exec.add_node(NodeSpec {
            name: "n1".into(),
            control_path: daemon_b.control_path.clone(),
            dataspaces: vec!["pmdk0".into()],
        })
        .unwrap();
        let job = exec.submit(SCRIPT, JobBody::Sleep(Duration::ZERO)).unwrap();
        exec.run().unwrap();
        assert_eq!(exec.job_state(job), Some(FlowJobState::Completed));
        let placement = pmdk
            .iter()
            .map(|mount| {
                CHILDREN
                    .iter()
                    .filter(|c| mount.join("case").join(c).exists())
                    .map(|c| c.to_string())
                    .collect()
            })
            .collect();
        drop(daemon_a);
        drop(daemon_b);
        let _ = fs::remove_dir_all(&root);
        placement
    }

    #[test]
    fn scatter_places_children_identically_in_sim_and_real() {
        let sim = sim_placement();
        // The sim's contract first: round-robin over sorted children,
        // no replication.
        assert_eq!(
            sim,
            vec![
                vec!["part0.dat".to_string(), "part2.dat".to_string()],
                vec!["part1.dat".to_string(), "part3.dat".to_string()],
            ],
            "sim scatter must deal sorted children round-robin"
        );
        let real = real_placement();
        assert_eq!(
            real, sim,
            "real-mode scatter must place every child on the same node as the simulator, \
             with no replication"
        );
    }
}

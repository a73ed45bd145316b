//! Remote staging over the TCP data plane: two real daemons on one
//! host move files between their dataspaces in both directions
//! (`RemotePath` pull and push), with live progress, mid-stream
//! cancel, and proper failures for unknown/unreachable peers and
//! escaping remote paths. The raw-TCP tests at the end speak the
//! framed data-plane protocol by hand to pin down what the serving
//! daemon answers, and the scripted-peer tests after them pin down what
//! the staging daemon sends: a planning request and chunk 0's first
//! window in one flight. Run this file with `NORNS_NO_SENDFILE=1` as well:
//! that switch sends pushes and served `Fetch` payloads through the
//! buffered fallback instead of `sendfile(2)`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use norns_ipc::{CtlClient, DaemonConfig, UrdDaemon, MIN_CHUNK_SIZE};
use norns_proto::{
    frame_header, read_frame, BackendKind, DataRequest, DataResponse, DataspaceDesc, ErrorCode,
    ResourceDesc, TaskOp, TaskSpec, TaskState, Wire, MAX_FRAME_LEN,
};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("norns-remote-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Position-dependent payload: any chunk-offset bug corrupts it.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 211 + 23) % 251) as u8).collect()
}

/// One daemon of a two-node testbed: its own socket dir, one dataspace
/// (`nsid`) backed by `<root>/<name>/ds`, and a loopback data plane.
fn start_node(
    root: &std::path::Path,
    name: &str,
    config: DaemonConfig,
) -> (UrdDaemon, CtlClient, PathBuf) {
    let daemon = UrdDaemon::spawn(config.with_data_addr("127.0.0.1:0")).unwrap();
    let mut ctl = CtlClient::connect(&daemon.control_path).unwrap();
    let mount = root.join(name).join("ds");
    ctl.register_dataspace(DataspaceDesc {
        nsid: format!("{name}-ds"),
        kind: BackendKind::Tmpfs,
        mount: mount.to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
    (daemon, ctl, mount)
}

/// Two daemons that know each other as peers `nodea` / `nodeb`.
#[allow(clippy::type_complexity)]
fn two_nodes(
    tag: &str,
    config_a: DaemonConfig,
    config_b: DaemonConfig,
) -> (
    PathBuf,
    (UrdDaemon, CtlClient, PathBuf),
    (UrdDaemon, CtlClient, PathBuf),
) {
    let root = temp_root(tag);
    let mut a = start_node(&root, "nodea", config_a);
    let mut b = start_node(&root, "nodeb", config_b);
    let addr_a = a.0.data_addr().unwrap().to_string();
    let addr_b = b.0.data_addr().unwrap().to_string();
    a.1.register_peer("nodeb", &addr_b).unwrap();
    b.1.register_peer("nodea", &addr_a).unwrap();
    (root, a, b)
}

fn remote(host: &str, nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::RemotePath {
        host: host.into(),
        nsid: nsid.into(),
        path: path.into(),
    }
}

fn local(nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::PosixPath {
        nsid: nsid.into(),
        path: path.into(),
    }
}

#[test]
fn push_and_pull_a_multichunk_file_between_two_daemons() {
    let chunk = MIN_CHUNK_SIZE; // 64 KiB → 13 chunk sub-units
    let cfg = |dir: PathBuf| DaemonConfig::in_dir(dir).with_chunk_size(chunk);
    let root = temp_root("roundtrip");
    let (daemon_a, mut ctl_a, mount_a) =
        start_node(&root, "nodea", cfg(root.join("nodea/sockets")));
    let (daemon_b, mut ctl_b, mount_b) =
        start_node(&root, "nodeb", cfg(root.join("nodeb/sockets")));
    ctl_a
        .register_peer("nodeb", &daemon_b.data_addr().unwrap().to_string())
        .unwrap();
    ctl_b
        .register_peer("nodea", &daemon_a.data_addr().unwrap().to_string())
        .unwrap();
    // Both daemons advertise their data plane in status.
    assert_eq!(
        ctl_a.status().unwrap().data_addr,
        daemon_a.data_addr().unwrap().to_string()
    );

    let data = pattern((chunk * 12) as usize + 4097);
    std::fs::write(mount_a.join("input.dat"), &data).unwrap();

    // Push: A's dataspace → B's dataspace, submitted on A.
    let push = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                local("nodea-ds", "input.dat"),
                Some(remote("nodeb", "nodeb-ds", "staged/input.dat")),
            ),
            None,
        )
        .unwrap();
    // Live progress is monotone while the push runs.
    let mut samples = Vec::new();
    loop {
        let stats = ctl_a.query(push).unwrap_or_else(|e| panic!("query: {e}"));
        samples.push(stats.bytes_moved);
        if stats.state.is_terminal() {
            break;
        }
        std::thread::yield_now();
    }
    assert!(
        samples.windows(2).all(|w| w[0] <= w[1]),
        "bytes_moved must be monotone: {samples:?}"
    );
    let stats = ctl_a.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert_eq!(stats.bytes_total, data.len() as u64);
    assert_eq!(
        std::fs::read(mount_b.join("staged/input.dat")).unwrap(),
        data,
        "pushed bytes must arrive intact"
    );

    // Pull: B's dataspace → A's dataspace, submitted on A.
    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "staged/input.dat"),
                Some(local("nodea-ds", "out/roundtrip.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert_eq!(
        stats.bytes_total,
        data.len() as u64,
        "pull learns the remote size from the probe"
    );
    assert_eq!(
        std::fs::read(mount_a.join("out/roundtrip.dat")).unwrap(),
        data,
        "pulled bytes must round-trip intact"
    );

    // An empty file stages cleanly in both directions too.
    std::fs::write(mount_a.join("empty.dat"), b"").unwrap();
    let push = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                local("nodea-ds", "empty.dat"),
                Some(remote("nodeb", "nodeb-ds", "empty.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, 0);
    assert_eq!(std::fs::read(mount_b.join("empty.dat")).unwrap(), b"");
}

#[test]
fn cancel_interrupts_a_remote_pull_mid_stream() {
    // One worker and 64 KiB chunks: a 32 MiB pull is 512 sequential
    // units, each a scheduler dispatch + framed round-trip — plenty
    // of runway to land a cancel while the transfer is in progress.
    let mut cfg_a =
        DaemonConfig::in_dir(temp_root("cancel-a").join("sockets")).with_chunk_size(MIN_CHUNK_SIZE);
    cfg_a.workers = 1;
    let cfg_b = DaemonConfig::in_dir(temp_root("cancel-b").join("sockets"));
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) =
        two_nodes("cancel", cfg_a, cfg_b);
    let size = (MIN_CHUNK_SIZE * 512) as usize;
    std::fs::write(mount_b.join("big.dat"), pattern(size)).unwrap();

    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "big.dat"),
                Some(local("nodea-ds", "staged/big.dat")),
            ),
            None,
        )
        .unwrap();
    // Wait for real mid-stream progress, then cancel.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = ctl_a.query(pull).unwrap();
        if stats.state == TaskState::InProgress && stats.bytes_moved > 0 {
            break;
        }
        assert!(
            !stats.state.is_terminal(),
            "512-unit transfer finished in {:?} before a cancel could land",
            stats.state
        );
        assert!(Instant::now() < deadline, "transfer never started moving");
        std::thread::yield_now();
    }
    ctl_a
        .cancel(pull)
        .expect("mid-stream cancel must be accepted");
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Cancelled);
    assert!(
        stats.bytes_moved < size as u64,
        "cancel must interrupt before completion ({} of {size} moved)",
        stats.bytes_moved
    );
    assert!(
        !mount_a.join("staged/big.dat").exists(),
        "a cancelled pull must not leave the preallocated destination"
    );
    assert_eq!(ctl_a.status().unwrap().cancelled_tasks, 1);
}

#[test]
fn window_one_reproduces_stop_and_wait() {
    // The pipelined path with a window of 1 must behave exactly like
    // the old stop-and-wait loop: one range in flight, same stepping,
    // same results.
    let cfg = |tag: &str| {
        DaemonConfig::in_dir(temp_root(tag).join("sockets"))
            .with_chunk_size(MIN_CHUNK_SIZE)
            .with_remote_window(1)
    };
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) =
        two_nodes("win1", cfg("win1-a"), cfg("win1-b"));
    let data = pattern((MIN_CHUNK_SIZE * 7) as usize + 333);
    std::fs::write(mount_a.join("src.dat"), &data).unwrap();

    let push = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                local("nodea-ds", "src.dat"),
                Some(remote("nodeb", "nodeb-ds", "dst.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert_eq!(std::fs::read(mount_b.join("dst.dat")).unwrap(), data);

    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "dst.dat"),
                Some(local("nodea-ds", "back.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert_eq!(std::fs::read(mount_a.join("back.dat")).unwrap(), data);
}

#[test]
fn wide_window_preserves_patterned_content_integrity() {
    // A 4 MiB chunk with a window of 16 subdivides into many in-flight
    // ranges per chunk; the position-dependent pattern catches any
    // range that lands at the wrong offset (and NORNS_NO_SENDFILE=1 in
    // CI exercises the buffered push and Fetch fallback the same way).
    let chunk = 4 << 20;
    let cfg = |tag: &str| {
        DaemonConfig::in_dir(temp_root(tag).join("sockets"))
            .with_chunk_size(chunk)
            .with_remote_window(16)
    };
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) =
        two_nodes("wide", cfg("wide-a"), cfg("wide-b"));
    // 3 chunks plus a ragged tail, so full windows and partial final
    // ranges both occur.
    let data = pattern((chunk * 3) as usize + 70_001);
    std::fs::write(mount_a.join("src.dat"), &data).unwrap();

    let push = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                local("nodea-ds", "src.dat"),
                Some(remote("nodeb", "nodeb-ds", "dst.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert_eq!(
        std::fs::read(mount_b.join("dst.dat")).unwrap(),
        data,
        "windowed push must place every range at its absolute offset"
    );

    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "dst.dat"),
                Some(local("nodea-ds", "back.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(
        std::fs::read(mount_a.join("back.dat")).unwrap(),
        data,
        "windowed pull must place every range at its absolute offset"
    );
}

/// Regression: with Nagle left on at the serving end, every windowed
/// transfer paid the client's ~40 ms delayed-ACK timer. The client has
/// written its window of `Store`s and only reads, so it sends no data
/// that could carry an early ACK, and the server's second small `Ok`
/// waits behind the first, unACKed one. At the default window and
/// chunk size a 1 MiB file is one chunk of four 256 KiB ranges in
/// flight, so each such push must take well under that floor. Pulls
/// are held to the same limit.
#[test]
fn windowed_transfers_do_not_wait_out_the_delayed_ack_timer() {
    const FILES: usize = 16;
    const SIZE: usize = 1 << 20;
    const LIMIT: Duration = Duration::from_millis(20);
    let cfg = |tag: &str| DaemonConfig::in_dir(temp_root(tag).join("sockets"));
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) =
        two_nodes("nodelay", cfg("nodelay-a"), cfg("nodelay-b"));
    let files: Vec<Vec<u8>> = (0..FILES)
        .map(|k| {
            (0..SIZE)
                .map(|i| ((i * 211 + 23 + k * 97) % 251) as u8)
                .collect()
        })
        .collect();
    for (k, data) in files.iter().enumerate() {
        std::fs::write(mount_a.join(format!("src{k}.dat")), data).unwrap();
    }

    // One transfer at a time, timed from submit to its wait returning.
    let mut timed = |input: ResourceDesc, output: ResourceDesc| {
        let started = Instant::now();
        let task = ctl_a
            .submit(1, TaskSpec::new(TaskOp::Copy, input, Some(output)), None)
            .unwrap();
        let stats = ctl_a.wait(task, 0).unwrap();
        let took = started.elapsed();
        assert_eq!(stats.state, TaskState::Finished);
        assert_eq!(stats.bytes_moved, SIZE as u64);
        took
    };
    let median = |times: &[Duration]| {
        let mut sorted = times.to_vec();
        sorted.sort();
        sorted[sorted.len() / 2]
    };

    let pushes: Vec<Duration> = (0..FILES)
        .map(|k| {
            timed(
                local("nodea-ds", &format!("src{k}.dat")),
                remote("nodeb", "nodeb-ds", &format!("dst{k}.dat")),
            )
        })
        .collect();
    let pulls: Vec<Duration> = (0..FILES)
        .map(|k| {
            timed(
                remote("nodeb", "nodeb-ds", &format!("dst{k}.dat")),
                local("nodea-ds", &format!("back{k}.dat")),
            )
        })
        .collect();

    for (k, data) in files.iter().enumerate() {
        assert!(
            std::fs::read(mount_b.join(format!("dst{k}.dat"))).unwrap() == *data,
            "pushed file {k} must arrive intact"
        );
        assert!(
            std::fs::read(mount_a.join(format!("back{k}.dat"))).unwrap() == *data,
            "pulled file {k} must round-trip intact"
        );
    }
    let (push_p50, pull_p50) = (median(&pushes), median(&pulls));
    assert!(
        push_p50 < LIMIT,
        "median 1 MiB push took {push_p50:?} (>= {LIMIT:?}): a delayed-ACK stall; all: {pushes:?}"
    );
    assert!(
        pull_p50 < LIMIT,
        "median 1 MiB pull took {pull_p50:?} (>= {LIMIT:?}): a delayed-ACK stall; all: {pulls:?}"
    );
}

#[test]
fn cancel_interrupts_a_pull_with_a_full_window_in_flight() {
    // 4 MiB chunks with a window of 8 keep eight 512 KiB ranges in
    // flight per chunk; one worker and a 128 MiB transfer leave ample
    // runway to land a cancel while a window is outstanding. The
    // cancel must drain cleanly: task Cancelled, destination removed.
    let chunk: u64 = 4 << 20;
    let mut cfg_a = DaemonConfig::in_dir(temp_root("wincancel-a").join("sockets"))
        .with_chunk_size(chunk)
        .with_remote_window(8);
    cfg_a.workers = 1;
    let cfg_b = DaemonConfig::in_dir(temp_root("wincancel-b").join("sockets"));
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) =
        two_nodes("wincancel", cfg_a, cfg_b);
    let size = (chunk * 32) as usize;
    std::fs::write(mount_b.join("big.dat"), pattern(size)).unwrap();

    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "big.dat"),
                Some(local("nodea-ds", "staged/big.dat")),
            ),
            None,
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = ctl_a.query(pull).unwrap();
        if stats.state == TaskState::InProgress && stats.bytes_moved > 0 {
            break;
        }
        assert!(
            !stats.state.is_terminal(),
            "32-unit transfer finished in {:?} before a cancel could land",
            stats.state
        );
        assert!(Instant::now() < deadline, "transfer never started moving");
        std::thread::yield_now();
    }
    ctl_a
        .cancel(pull)
        .expect("mid-window cancel must be accepted");
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Cancelled);
    assert!(
        stats.bytes_moved < size as u64,
        "cancel must interrupt before completion ({} of {size} moved)",
        stats.bytes_moved
    );
    assert!(
        !mount_a.join("staged/big.dat").exists(),
        "a cancelled pull must not leave the preallocated destination"
    );
}

#[test]
fn peer_death_mid_window_fails_bounded() {
    // Killing the serving daemon while a window of requests is in
    // flight must fail the task promptly — the drained connection
    // errors, the fresh-connection retry is refused, and the worker
    // moves on. No hang, no partial output left behind.
    let chunk: u64 = 4 << 20;
    let mut cfg_a = DaemonConfig::in_dir(temp_root("windeath-a").join("sockets"))
        .with_chunk_size(chunk)
        .with_remote_window(8);
    cfg_a.workers = 1;
    let cfg_b = DaemonConfig::in_dir(temp_root("windeath-b").join("sockets"));
    let (_root, (_daemon_a, mut ctl_a, mount_a), (daemon_b, ctl_b, mount_b)) =
        two_nodes("windeath", cfg_a, cfg_b);
    let size = (chunk * 32) as usize;
    std::fs::write(mount_b.join("big.dat"), pattern(size)).unwrap();

    let pull = ctl_a
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "big.dat"),
                Some(local("nodea-ds", "staged/big.dat")),
            ),
            None,
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = ctl_a.query(pull).unwrap();
        if stats.state == TaskState::InProgress && stats.bytes_moved > 0 {
            break;
        }
        assert!(
            !stats.state.is_terminal(),
            "transfer finished in {:?} before the peer could die",
            stats.state
        );
        assert!(Instant::now() < deadline, "transfer never started moving");
        std::thread::yield_now();
    }
    drop(ctl_b);
    daemon_b.shutdown();
    let killed_at = Instant::now();
    let stats = ctl_a.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::FinishedWithError);
    assert_eq!(stats.error, ErrorCode::SystemError);
    assert!(
        killed_at.elapsed() < Duration::from_secs(60),
        "peer death must fail the task promptly, not hang a window"
    );
    assert!(
        !mount_a.join("staged/big.dat").exists(),
        "a failed pull must not leave the preallocated destination"
    );
}

#[test]
fn unknown_peer_is_rejected_at_submission() {
    let root = temp_root("unknown-peer");
    let (_daemon, mut ctl, _mount) = start_node(
        &root,
        "nodea",
        DaemonConfig::in_dir(root.join("nodea/sockets")),
    );
    let err = ctl.submit(
        1,
        TaskSpec::new(
            TaskOp::Copy,
            remote("ghost", "whatever", "x"),
            Some(local("nodea-ds", "y")),
        ),
        None,
    );
    match err {
        Err(norns_ipc::ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::NotFound);
            assert!(
                message.contains("ghost"),
                "message names the peer: {message}"
            );
        }
        other => panic!("expected remote NotFound, got {other:?}"),
    }
}

#[test]
fn unreachable_peer_fails_the_task_instead_of_hanging() {
    let root = temp_root("unreachable");
    let (daemon, mut ctl, mount) = start_node(
        &root,
        "nodea",
        DaemonConfig::in_dir(root.join("nodea/sockets")),
    );
    // A loopback port with nothing listening: connects are refused
    // immediately (no black-hole routing on 127.0.0.1), so the task
    // must fail quickly rather than hang a worker.
    ctl.register_peer("dead", "127.0.0.1:9").unwrap();
    std::fs::write(mount.join("src.dat"), b"payload").unwrap();
    let started = Instant::now();
    let push = ctl
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                local("nodea-ds", "src.dat"),
                Some(remote("dead", "their-ds", "dst.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::FinishedWithError);
    assert_eq!(stats.error, ErrorCode::SystemError);
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "unreachable peer must fail within the connect timeout"
    );
    let detail = daemon.engine().error_message(push).unwrap();
    assert!(
        detail.contains("127.0.0.1:9"),
        "failure detail names the peer address: {detail}"
    );
}

#[test]
fn serving_daemon_rejects_escaping_remote_paths() {
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) = two_nodes(
        "remote-escape",
        DaemonConfig::in_dir(temp_root("resc-a").join("sockets")),
        DaemonConfig::in_dir(temp_root("resc-b").join("sockets")),
    );
    std::fs::write(mount_a.join("src.dat"), b"payload").unwrap();
    for escape in ["../outside.dat", "/etc/hostname"] {
        // Push to an escaping remote path: the *serving* daemon's
        // containment check rejects the Prepare.
        let push = ctl_a
            .submit(
                1,
                TaskSpec::new(
                    TaskOp::Copy,
                    local("nodea-ds", "src.dat"),
                    Some(remote("nodeb", "nodeb-ds", escape)),
                ),
                None,
            )
            .unwrap();
        let stats = ctl_a.wait(push, 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError, "push {escape}");
        assert_eq!(stats.error, ErrorCode::PermissionDenied, "push {escape}");
        // Pull from an escaping remote path: the Stat is rejected.
        let pull = ctl_a
            .submit(
                1,
                TaskSpec::new(
                    TaskOp::Copy,
                    remote("nodeb", "nodeb-ds", escape),
                    Some(local("nodea-ds", "pulled.dat")),
                ),
                None,
            )
            .unwrap();
        let stats = ctl_a.wait(pull, 0).unwrap();
        assert_eq!(stats.state, TaskState::FinishedWithError, "pull {escape}");
        assert_eq!(stats.error, ErrorCode::PermissionDenied, "pull {escape}");
    }
    assert!(!mount_b.join("outside.dat").exists());
    assert!(
        !mount_b.parent().unwrap().join("outside.dat").exists(),
        "nothing may be written outside the serving dataspace"
    );
}

#[test]
fn unsupported_remote_combinations_are_rejected() {
    let (_root, (_daemon_a, mut ctl_a, mount_a), _b) = two_nodes(
        "remote-combos",
        DaemonConfig::in_dir(temp_root("combo-a").join("sockets")),
        DaemonConfig::in_dir(temp_root("combo-b").join("sockets")),
    );
    std::fs::write(mount_a.join("src.dat"), b"payload").unwrap();
    let expect_badargs = |r: Result<u64, norns_ipc::ClientError>, what: &str| match r {
        Err(norns_ipc::ClientError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::BadArgs, "{what}")
        }
        other => panic!("{what}: expected BadArgs, got {other:?}"),
    };
    // Remote → remote relay.
    expect_badargs(
        ctl_a.submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("nodeb", "nodeb-ds", "a"),
                Some(remote("nodeb", "nodeb-ds", "b")),
            ),
            None,
        ),
        "remote-to-remote",
    );
    // Cross-node move.
    expect_badargs(
        ctl_a.submit(
            1,
            TaskSpec::new(
                TaskOp::Move,
                local("nodea-ds", "src.dat"),
                Some(remote("nodeb", "nodeb-ds", "moved")),
            ),
            None,
        ),
        "remote move",
    );
    // Remote remove.
    expect_badargs(
        ctl_a.submit(
            1,
            TaskSpec::new(TaskOp::Remove, remote("nodeb", "nodeb-ds", "x"), None),
            None,
        ),
        "remote remove",
    );
    // Memory region → remote.
    expect_badargs(
        ctl_a.submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                ResourceDesc::MemoryRegion { addr: 0, size: 3 },
                Some(remote("nodeb", "nodeb-ds", "mem")),
            ),
            Some(b"abc"),
        ),
        "memory to remote",
    );
}

/// A raw connection to `daemon`'s data plane, bounded so a torn or
/// missing reply fails the test instead of hanging it.
fn raw_data_conn(daemon: &UrdDaemon) -> TcpStream {
    let stream = TcpStream::connect(daemon.data_addr().unwrap()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// One hand-framed data-plane round-trip: `req` plus its trailing
/// `payload` out, one response frame back as (response, payload).
fn raw_call(stream: &mut TcpStream, req: &DataRequest, payload: &[u8]) -> (DataResponse, Vec<u8>) {
    let body = req.to_bytes();
    let mut framed = frame_header(body.len() + payload.len()).to_vec();
    framed.extend_from_slice(&body);
    framed.extend_from_slice(payload);
    stream.write_all(&framed).unwrap();
    let mut frame = read_frame(stream).unwrap();
    let resp = DataResponse::decode(&mut frame).unwrap();
    (resp, frame.to_vec())
}

/// Only `Prepare` creates a destination. A `Store` that lands after a
/// `Discard` (say, a range from a dead connection racing a cancelled
/// push's cleanup) must fail instead of putting a partial file back
/// under the final name.
#[test]
fn store_after_discard_answers_not_found_and_leaves_no_file() {
    let root = temp_root("store-after-discard");
    let (daemon, _ctl, mount) =
        start_node(&root, "nodeb", DaemonConfig::in_dir(root.join("sockets")));
    let mut conn = raw_data_conn(&daemon);
    let (nsid, path) = ("nodeb-ds".to_string(), "partial.dat".to_string());
    let prepare = DataRequest::Prepare {
        nsid: nsid.clone(),
        path: path.clone(),
        size: 4096,
    };
    assert_eq!(raw_call(&mut conn, &prepare, &[]).0, DataResponse::Ok);
    assert!(
        mount.join(&path).exists(),
        "Prepare creates the destination"
    );
    let discard = DataRequest::Discard {
        nsid: nsid.clone(),
        path: path.clone(),
    };
    assert_eq!(raw_call(&mut conn, &discard, &[]).0, DataResponse::Ok);
    let store = DataRequest::Store {
        nsid,
        path: path.clone(),
        offset: 0,
    };
    match raw_call(&mut conn, &store, &[7u8; 1024]).0 {
        DataResponse::Error { code, .. } => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("a Store after Discard must fail, got {other:?}"),
    }
    assert!(
        !mount.join(&path).exists(),
        "a late Store must not recreate the discarded file"
    );
}

/// A `Fetch` is bounded by the source's size when it is served: a
/// source that shrank after the peer's `Stat` yields a short `Data`
/// whose frame length matches its payload, and a `Fetch` at or past
/// EOF an empty one. Each answer is checked on the same connection, so
/// a frame promising more bytes than it carried would desynchronize
/// (or time out) the next read.
#[test]
fn fetch_past_eof_returns_a_short_data_frame() {
    let root = temp_root("fetch-eof");
    let (daemon, _ctl, mount) =
        start_node(&root, "nodeb", DaemonConfig::in_dir(root.join("sockets")));
    let data = pattern(100_000);
    std::fs::write(mount.join("src.dat"), &data).unwrap();
    let mut conn = raw_data_conn(&daemon);
    let nsid = "nodeb-ds".to_string();
    let path = "src.dat".to_string();
    let stat = DataRequest::Stat {
        nsid: nsid.clone(),
        path: path.clone(),
    };
    assert_eq!(
        raw_call(&mut conn, &stat, &[]).0,
        DataResponse::Stat { size: 100_000 }
    );
    std::fs::OpenOptions::new()
        .write(true)
        .open(mount.join("src.dat"))
        .unwrap()
        .set_len(60_000)
        .unwrap();
    let fetch = |offset: u64, len: u64| DataRequest::Fetch {
        nsid: nsid.clone(),
        path: path.clone(),
        offset,
        len,
    };
    // (offset, len of the old full range) → bytes the truncated source
    // still holds.
    for (offset, len, want) in [
        (0, 100_000, 0..60_000),
        (40_000, 60_000, 40_000..60_000),
        (60_000, 40_000, 0..0),
        (70_000, 30_000, 0..0),
    ] {
        let (resp, payload) = raw_call(&mut conn, &fetch(offset, len), &[]);
        assert_eq!(resp, DataResponse::Data, "Fetch at {offset}");
        assert_eq!(payload, &data[want], "Fetch at {offset}");
    }
    // A directory is refused like its `Stat` is, before any payload
    // (or a `sendfile` the kernel would reject) is attempted.
    std::fs::create_dir(mount.join("sub")).unwrap();
    let dir_fetch = DataRequest::Fetch {
        nsid: nsid.clone(),
        path: "sub".into(),
        offset: 0,
        len: 10,
    };
    match raw_call(&mut conn, &dir_fetch, &[]) {
        (DataResponse::Error { code, .. }, payload) => {
            assert_eq!(code, ErrorCode::BadArgs);
            assert!(payload.is_empty());
        }
        other => panic!("a Fetch of a directory must fail, got {other:?}"),
    }
}

/// A frame header over `MAX_FRAME_LEN` is a protocol violation: the
/// daemon drops that connection without allocating for it, and keeps
/// serving every other peer.
#[test]
fn oversized_data_frame_drops_only_that_connection() {
    let root = temp_root("oversized-frame");
    let (daemon, _ctl, mount) =
        start_node(&root, "nodeb", DaemonConfig::in_dir(root.join("sockets")));
    std::fs::write(mount.join("src.dat"), b"still served").unwrap();
    let stat = DataRequest::Stat {
        nsid: "nodeb-ds".into(),
        path: "src.dat".into(),
    };
    let mut other = raw_data_conn(&daemon);
    assert_eq!(
        raw_call(&mut other, &stat, &[]).0,
        DataResponse::Stat { size: 12 }
    );

    let mut bad = raw_data_conn(&daemon);
    bad.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
    bad.write_all(&[0u8; 64]).unwrap();
    match bad.read(&mut [0u8; 16]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("an oversized frame must drop the connection, got {other:?}"),
    }

    assert_eq!(
        raw_call(&mut other, &stat, &[]).0,
        DataResponse::Stat { size: 12 },
        "a peer connected before the violation is still served"
    );
    let mut fresh = raw_data_conn(&daemon);
    assert_eq!(
        raw_call(&mut fresh, &stat, &[]).0,
        DataResponse::Stat { size: 12 },
        "a peer connecting after the violation is served"
    );
}

/// A `Prepare` whose preallocation fails must not leave an empty file
/// under the final name: the `Store`s a push queues behind its
/// `Prepare` would write into it. The error reply leaves nothing, and
/// a following `Store` finds no destination.
#[test]
fn failed_prepare_leaves_no_file_for_the_stores_behind_it() {
    let root = temp_root("torn-prepare");
    let (daemon, _ctl, mount) =
        start_node(&root, "nodeb", DaemonConfig::in_dir(root.join("sockets")));
    let mut conn = raw_data_conn(&daemon);
    let (nsid, path) = ("nodeb-ds".to_string(), "torn.dat".to_string());
    let prepare = DataRequest::Prepare {
        nsid: nsid.clone(),
        path: path.clone(),
        size: u64::MAX,
    };
    assert!(
        matches!(
            raw_call(&mut conn, &prepare, &[]).0,
            DataResponse::Error { .. }
        ),
        "no file can be preallocated to u64::MAX bytes"
    );
    assert!(
        !mount.join(&path).exists(),
        "a failed Prepare must not leave a torn file"
    );
    let store = DataRequest::Store {
        nsid,
        path: path.clone(),
        offset: 0,
    };
    match raw_call(&mut conn, &store, &[7u8; 1024]).0 {
        DataResponse::Error { code, .. } => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("a Store behind a failed Prepare must fail, got {other:?}"),
    }
    assert!(!mount.join(&path).exists());
}

/// What a scripted data-plane peer has seen, shared with the test.
#[derive(Default)]
struct PeerLog {
    /// A planning reply went out with no range request behind it on
    /// its connection: the client waited for it (stop-and-wait).
    stop_and_wait: AtomicBool,
    /// Set just before the `Prepare` reply is written.
    prepare_answered: AtomicBool,
    /// A `Store` arrived before the `Prepare` reply was written.
    early_store: AtomicBool,
    /// The file the `Store`s built.
    stored: Mutex<Vec<u8>>,
}

/// How a scripted peer answers.
#[derive(Clone, Default)]
struct Script {
    /// The file `Stat` and `Fetch` serve.
    source: Vec<u8>,
    /// `Stat` reports this size instead of the source's.
    stat_size: Option<u64>,
    /// Hold each planning reply until a range request has arrived
    /// behind it on its connection. After 2 s it goes out anyway, and
    /// the peer records stop-and-wait.
    await_range: bool,
    /// Hold each planning reply this long first.
    hold: Duration,
}

/// One request off a scripted peer's connection, with its payload.
fn recv_request(stream: &mut TcpStream) -> Option<(DataRequest, Vec<u8>)> {
    let mut frame = read_frame(stream).ok()?;
    let req = DataRequest::decode(&mut frame).ok()?;
    Some((req, frame.to_vec()))
}

/// A data-plane peer scripted by the test: it serves `script.source`
/// under every path, keeps what is pushed in `log.stored`, and answers
/// each connection's requests in order, as a daemon does. Returns its
/// address.
fn scripted_peer(script: Script, log: Arc<PeerLog>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let (script, log) = (script.clone(), Arc::clone(&log));
            std::thread::spawn(move || serve_scripted(stream, &script, &log));
        }
    });
    addr
}

fn serve_scripted(mut stream: TcpStream, script: &Script, log: &PeerLog) {
    let mut held = None;
    loop {
        let Some((req, payload)) = held.take().or_else(|| recv_request(&mut stream)) else {
            return;
        };
        let mut data = Vec::new();
        let resp = match req {
            DataRequest::Stat { .. } | DataRequest::Prepare { .. } => {
                std::thread::sleep(script.hold);
                if script.await_range {
                    stream
                        .set_read_timeout(Some(Duration::from_secs(2)))
                        .unwrap();
                    held = recv_request(&mut stream);
                    stream.set_read_timeout(None).unwrap();
                    if held.is_none() {
                        log.stop_and_wait.store(true, Ordering::SeqCst);
                    }
                }
                if let DataRequest::Prepare { size, .. } = req {
                    log.stored.lock().unwrap().resize(size as usize, 0);
                    log.prepare_answered.store(true, Ordering::SeqCst);
                    DataResponse::Ok
                } else {
                    let size = script.stat_size.unwrap_or(script.source.len() as u64);
                    DataResponse::Stat { size }
                }
            }
            DataRequest::Fetch { offset, len, .. } => {
                let end = script.source.len();
                let from = (offset as usize).min(end);
                data.extend_from_slice(&script.source[from..(from + len as usize).min(end)]);
                DataResponse::Data
            }
            DataRequest::Store { offset, .. } => {
                if !log.prepare_answered.load(Ordering::SeqCst) {
                    log.early_store.store(true, Ordering::SeqCst);
                }
                let mut stored = log.stored.lock().unwrap();
                let end = offset as usize + payload.len();
                if stored.len() < end {
                    stored.resize(end, 0);
                }
                stored[offset as usize..end].copy_from_slice(&payload);
                DataResponse::Ok
            }
            DataRequest::Discard { .. } => DataResponse::Ok,
        };
        let body = resp.to_bytes();
        let mut framed = frame_header(body.len() + data.len()).to_vec();
        framed.extend_from_slice(&body);
        framed.extend_from_slice(&data);
        if stream.write_all(&framed).is_err() {
            return;
        }
    }
}

/// A daemon that knows `addr` as peer `scripted`.
fn node_with_scripted_peer(
    tag: &str,
    config: DaemonConfig,
    addr: &str,
) -> (UrdDaemon, CtlClient, PathBuf) {
    let root = temp_root(tag);
    let (daemon, mut ctl, mount) = start_node(&root, "nodea", config);
    ctl.register_peer("scripted", addr).unwrap();
    (daemon, ctl, mount)
}

/// One round trip per one-chunk push: the `Store`s leave right behind
/// the `Prepare`, so the peer sees a `Store` before it answers the
/// `Prepare`. A client that waits for the `Prepare` reply first leaves
/// the peer holding it for 2 s, and the peer records stop-and-wait.
#[test]
fn push_sends_its_stores_without_waiting_for_the_prepare_reply() {
    let log = Arc::new(PeerLog::default());
    let script = Script {
        await_range: true,
        ..Script::default()
    };
    let addr = scripted_peer(script, Arc::clone(&log));
    let cfg = DaemonConfig::in_dir(temp_root("flight-push-a").join("sockets"));
    let (_daemon, mut ctl, mount) = node_with_scripted_peer("flight-push", cfg, &addr);
    let data = pattern(300_000);
    std::fs::write(mount.join("src.dat"), &data).unwrap();
    let push = ctl
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                local("nodea-ds", "src.dat"),
                Some(remote("scripted", "any", "dst.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, data.len() as u64);
    assert!(
        !log.stop_and_wait.load(Ordering::SeqCst),
        "the push waited for the Prepare reply before sending a Store"
    );
    assert!(*log.stored.lock().unwrap() == data, "pushed bytes intact");
}

/// One round trip per one-chunk pull: the `Fetch`es leave right behind
/// the `Stat`, stepped for a full chunk. Past the 100 000-byte source
/// the peer answers short and then empty, and the pull expects exactly
/// that.
#[test]
fn pull_sends_its_fetches_without_waiting_for_the_stat_reply() {
    let log = Arc::new(PeerLog::default());
    let source = pattern(100_000);
    let script = Script {
        source: source.clone(),
        await_range: true,
        ..Script::default()
    };
    let addr = scripted_peer(script, Arc::clone(&log));
    let cfg = DaemonConfig::in_dir(temp_root("flight-pull-a").join("sockets"));
    let (_daemon, mut ctl, mount) = node_with_scripted_peer("flight-pull", cfg, &addr);
    let pull = ctl
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("scripted", "any", "src.dat"),
                Some(local("nodea-ds", "pulled.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(stats.bytes_moved, source.len() as u64);
    assert_eq!(stats.bytes_total, source.len() as u64);
    assert!(
        !log.stop_and_wait.load(Ordering::SeqCst),
        "the pull waited for the Stat reply before sending a Fetch"
    );
    assert_eq!(std::fs::read(mount.join("pulled.dat")).unwrap(), source);
}

/// A pull's `elapsed_usec` starts at the planning dispatch, so the
/// planning exchange is in it: a peer that holds its `Stat` reply for
/// 50 ms yields at least 50 ms.
#[test]
fn pull_elapsed_time_covers_the_planning_exchange() {
    let script = Script {
        source: pattern(4096),
        hold: Duration::from_millis(50),
        ..Script::default()
    };
    let addr = scripted_peer(script, Arc::new(PeerLog::default()));
    let cfg = DaemonConfig::in_dir(temp_root("flight-elapsed-a").join("sockets"));
    let (_daemon, mut ctl, _mount) = node_with_scripted_peer("flight-elapsed", cfg, &addr);
    let pull = ctl
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("scripted", "any", "src.dat"),
                Some(local("nodea-ds", "pulled.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert!(
        stats.elapsed_usec >= 50_000,
        "elapsed {} µs misses the 50 ms planning exchange",
        stats.elapsed_usec
    );
}

/// A multi-chunk push enqueues its other chunks only once the `Prepare`
/// reply is read: with the reply held for 100 ms, no `Store` may reach
/// the peer (on any connection) before it is written.
#[test]
fn multichunk_push_stores_nothing_before_the_prepare_reply() {
    let log = Arc::new(PeerLog::default());
    let script = Script {
        hold: Duration::from_millis(100),
        ..Script::default()
    };
    let addr = scripted_peer(script, Arc::clone(&log));
    let cfg = DaemonConfig::in_dir(temp_root("flight-chunks-a").join("sockets"))
        .with_chunk_size(MIN_CHUNK_SIZE);
    let (_daemon, mut ctl, mount) = node_with_scripted_peer("flight-chunks", cfg, &addr);
    let data = pattern((MIN_CHUNK_SIZE * 6) as usize + 100);
    std::fs::write(mount.join("src.dat"), &data).unwrap();
    let push = ctl
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                local("nodea-ds", "src.dat"),
                Some(remote("scripted", "any", "dst.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl.wait(push, 0).unwrap();
    assert_eq!(stats.state, TaskState::Finished);
    assert!(
        !log.early_store.load(Ordering::SeqCst),
        "a Store reached the peer before its Prepare was answered"
    );
    assert!(*log.stored.lock().unwrap() == data, "pushed bytes intact");
}

/// A source that grew after its `Stat`: the `Data` for chunk 0 carries
/// more bytes than the `Stat` size allows. The pull fails instead of
/// staging a file that matches neither version, and leaves no local
/// file.
#[test]
fn pull_of_a_source_that_grew_fails_and_leaves_no_file() {
    let script = Script {
        source: pattern(100_000),
        stat_size: Some(60_000),
        ..Script::default()
    };
    let addr = scripted_peer(script, Arc::new(PeerLog::default()));
    let cfg = DaemonConfig::in_dir(temp_root("flight-grew-a").join("sockets"));
    let (daemon, mut ctl, mount) = node_with_scripted_peer("flight-grew", cfg, &addr);
    let pull = ctl
        .submit(
            1,
            TaskSpec::new(
                TaskOp::Copy,
                remote("scripted", "any", "src.dat"),
                Some(local("nodea-ds", "pulled.dat")),
            ),
            None,
        )
        .unwrap();
    let stats = ctl.wait(pull, 0).unwrap();
    assert_eq!(stats.state, TaskState::FinishedWithError);
    assert_eq!(stats.error, ErrorCode::SystemError);
    let detail = daemon.engine().error_message(pull).unwrap();
    assert!(detail.contains("changed"), "{detail}");
    assert!(!mount.join("pulled.dat").exists());
}

/// A refused planning request is what the task reports, not the errors
/// of the ranges sent behind it, and the replies in flight are drained:
/// with one worker, the same cached connection then carries a push and
/// a pull that succeed.
#[test]
fn planning_errors_are_reported_and_the_worker_keeps_staging() {
    let mut cfg_a = DaemonConfig::in_dir(temp_root("plan-err-a").join("sockets"));
    cfg_a.workers = 1;
    let cfg_b = DaemonConfig::in_dir(temp_root("plan-err-b").join("sockets"));
    let (_root, (_daemon_a, mut ctl_a, mount_a), (_daemon_b, _ctl_b, mount_b)) =
        two_nodes("plan-err", cfg_a, cfg_b);
    let data = pattern(200_000);
    std::fs::write(mount_a.join("src.dat"), &data).unwrap();
    std::fs::create_dir_all(mount_b.join("sub")).unwrap();
    let mut run = |input: ResourceDesc, output: ResourceDesc| {
        let task = ctl_a
            .submit(1, TaskSpec::new(TaskOp::Copy, input, Some(output)), None)
            .unwrap();
        ctl_a.wait(task, 0).unwrap()
    };
    for (input, output, want) in [
        (
            local("nodea-ds", "src.dat"),
            remote("nodeb", "nodeb-ds", "../escape.dat"),
            ErrorCode::PermissionDenied,
        ),
        (
            remote("nodeb", "nodeb-ds", "missing.dat"),
            local("nodea-ds", "missing.dat"),
            ErrorCode::NotFound,
        ),
        (
            remote("nodeb", "nodeb-ds", "sub"),
            local("nodea-ds", "sub.dat"),
            ErrorCode::BadArgs,
        ),
    ] {
        let stats = run(input.clone(), output);
        assert_eq!(stats.state, TaskState::FinishedWithError, "{input:?}");
        assert_eq!(stats.error, want, "{input:?}");
    }
    assert!(!mount_a.join("missing.dat").exists());
    assert!(!mount_a.join("sub.dat").exists());

    let stats = run(
        local("nodea-ds", "src.dat"),
        remote("nodeb", "nodeb-ds", "dst.dat"),
    );
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(std::fs::read(mount_b.join("dst.dat")).unwrap(), data);
    let stats = run(
        remote("nodeb", "nodeb-ds", "dst.dat"),
        local("nodea-ds", "back.dat"),
    );
    assert_eq!(stats.state, TaskState::Finished);
    assert_eq!(std::fs::read(mount_a.join("back.dat")).unwrap(), data);
}

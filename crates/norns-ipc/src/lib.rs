//! # norns-ipc — the real urd daemon
//!
//! While the `norns` crate models the service inside the cluster
//! simulator, this crate is a *real* implementation of the daemon:
//! actual `AF_UNIX` sockets with split control/user permissions, an
//! accept loop, framed protobuf-style messages (`norns-proto`), a
//! policy-driven worker pool, genuine filesystem transfers, and a TCP
//! *data plane* over which two daemons stage files between their
//! dataspaces (`RemotePath` pulls and pushes — the paper's
//! node-to-node staging scenarios). It backs the Fig. 4 request-rate
//! benchmark (local clients hammering one urd) and the
//! quickstart/memory-offload/remote-staging examples.
//!
//! * [`engine::Engine`] — registries (dataspaces, jobs, peers),
//!   validation, a bounded dispatch queue arbitrated through the
//!   shared `norns-sched` policies, a joined worker pool, a sharded
//!   task table, one wait path (a subscription registry that parks
//!   each wait as a one-shot callback; the blocking `wait` is a
//!   subscription plus a channel), a chunked zero-copy local data
//!   plane and a remote-staging backend, both with live progress and
//!   mid-stream cancel.
//! * [`daemon::UrdDaemon`] — socket + data-plane lifecycle and request
//!   dispatch through a fixed pool of epoll reactor threads; shutdown
//!   joins every reactor and data-plane thread.
//! * [`client::PipelinedCtl`] / [`client::PipelinedUser`] — the client
//!   libraries mirroring `nornsctl` / `norns` (also exported under
//!   their historical names `CtlClient` / `UserClient`). Every call
//!   is a wire-v7 tagged request: blocking methods issue and wait for
//!   their own tag, and `issue_*` keeps many requests outstanding per
//!   connection.

pub mod client;
pub mod daemon;
pub mod engine;

pub use client::{ClientError, ClientResult, CtlClient, PipelinedCtl, PipelinedUser, UserClient};
pub use daemon::{DaemonConfig, UrdDaemon, DEFAULT_REACTORS};
pub use engine::{
    Engine, EngineConfig, IpcPolicy, PolicyKind, DEFAULT_CHUNK_SIZE, DEFAULT_QUEUE_CAPACITY,
    DEFAULT_REMOTE_WINDOW, DEFAULT_SHARDS, MAX_REMOTE_WINDOW, MIN_CHUNK_SIZE,
};

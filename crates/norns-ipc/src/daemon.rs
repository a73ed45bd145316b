//! The real `urd` daemon: an event-driven control plane. Two `AF_UNIX`
//! listeners (control + user, with different filesystem permissions,
//! §IV-B) and an optional TCP *data-plane* listener are all owned by a
//! fixed pool of **reactor threads** multiplexing over `epoll` — no
//! accept-poll loop, no thread per connection on the control plane.
//!
//! Each reactor owns a disjoint set of nonblocking connections. Reactor
//! 0 additionally owns the listeners: accepted control/user sockets are
//! handed round-robin to the reactors through a wake-up queue; data
//! plane connections still get a dedicated blocking thread (they move
//! multi-megabyte payloads sequentially, where blocking I/O is the
//! right tool). Per connection, a [`FrameReader`] decodes as many
//! frames as the kernel delivered, responses accumulate in an outbound
//! buffer written back without blocking, and `WaitTask`/`WaitAny` park
//! in the [`Engine`]'s subscription registry — a completion callback
//! re-queues the tagged response on the owning reactor instead of
//! pinning a thread for the duration of the wait.
//!
//! Backpressure is explicit at both ends: a connection whose outbound
//! buffer exceeds `OUTBOUND_PAUSE_THRESHOLD` (4 MiB) stops being *read*
//! (requests queue in the kernel until the client drains responses),
//! and a connection with `MAX_PARKED_WAITS` (1024) waits in flight gets
//! `ErrorCode::Busy` for further waits instead of unbounded engine
//! subscriptions.
//!
//! Shutdown is complete, not advisory: `initiate_shutdown` stops the
//! engine (workers joined, backlog cancelled, parked waits failed),
//! wakes every reactor so it drops its connections and listeners, and
//! joins reactors and data-plane threads — no thread outlives the
//! daemon waiting for a client to hang up.
//!
//! Socket files are bound inside a private `0o700` staging directory,
//! given their final permissions, and only then renamed into place:
//! the control socket is never observable with umask-default (possibly
//! world-connectable) permissions, not even transiently.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::PermissionsExt;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use bytes::{Buf, Bytes, BytesMut};

use parking_lot::Mutex;
use polling::{Event, Interest, Poller, Waker};

use norns_proto::{
    encode_tagged, frame_header, CtlRequest, DaemonCommand, DataRequest, DataResponse, ErrorCode,
    FrameReader, Response, UserRequest, Wire, MAX_DATA_RANGE,
};

use crate::engine::{Engine, EngineConfig, PolicyKind, WaitCallback};

/// Reactor threads a daemon runs by default. Two lets accept/decode
/// overlap with callback dispatch even on small machines; storms scale
/// by adding connections per reactor, not threads.
pub const DEFAULT_REACTORS: usize = 2;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Directory for `urd.ctl.sock` and `urd.user.sock`.
    pub socket_dir: PathBuf,
    /// Worker threads executing transfers.
    pub workers: usize,
    /// Bound on the pending task set (submissions past it get
    /// `ErrorCode::Busy`).
    pub queue_capacity: usize,
    /// Data-plane chunk size: transfers larger than this split into
    /// chunk sub-units executed by multiple workers.
    pub chunk_size: u64,
    /// Task arbitration policy the worker pool dispatches through.
    pub policy: PolicyKind,
    /// TCP address for the remote-staging data plane (e.g.
    /// `127.0.0.1:0` for an ephemeral loopback port); `None` disables
    /// remote staging. The data plane is unauthenticated — bind it to
    /// loopback or a trusted interconnect only.
    pub data_addr: Option<String>,
    /// Static peer registry seeded at spawn: `RemotePath.host` →
    /// peer data-plane address. Peers can also be added at runtime via
    /// `CtlRequest::RegisterPeer`.
    pub peers: Vec<(String, String)>,
    /// Range requests each worker keeps in flight per data-plane
    /// connection during remote staging; `1` is stop-and-wait.
    pub remote_window: usize,
    /// Reactor threads multiplexing the control/user planes (clamped
    /// to `1..=16`). Connection count does not add threads.
    pub reactors: usize,
    /// Peer copies a `Durability::Synchronous` stage-out must land
    /// before the task ACKs (clamped to at least 1).
    /// `Durability::LocalPlusOne` always replicates to exactly one
    /// peer regardless of this knob.
    pub target_copies: usize,
}

impl DaemonConfig {
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            socket_dir: dir.into(),
            workers: 4,
            queue_capacity: crate::engine::DEFAULT_QUEUE_CAPACITY,
            chunk_size: crate::engine::DEFAULT_CHUNK_SIZE,
            policy: PolicyKind::Fcfs,
            data_addr: None,
            peers: Vec::new(),
            remote_window: crate::engine::DEFAULT_REMOTE_WINDOW,
            reactors: DEFAULT_REACTORS,
            target_copies: 1,
        }
    }

    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    pub fn with_chunk_size(mut self, chunk_size: u64) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Enable the remote-staging data plane on `addr` (TCP; port 0
    /// picks an ephemeral port, retrievable via
    /// [`UrdDaemon::data_addr`]).
    pub fn with_data_addr(mut self, addr: impl Into<String>) -> Self {
        self.data_addr = Some(addr.into());
        self
    }

    /// Seed the peer registry with `host` → `data_addr`.
    pub fn with_peer(mut self, host: impl Into<String>, data_addr: impl Into<String>) -> Self {
        self.peers.push((host.into(), data_addr.into()));
        self
    }

    /// Set the remote-staging request window (requests in flight per
    /// data-plane connection; 1 reproduces stop-and-wait).
    pub fn with_remote_window(mut self, window: usize) -> Self {
        self.remote_window = window;
        self
    }

    /// Set the reactor thread count (clamped to `1..=16`).
    pub fn with_reactors(mut self, reactors: usize) -> Self {
        self.reactors = reactors;
        self
    }

    /// Set how many peer copies a `Durability::Synchronous` stage-out
    /// must land before it ACKs.
    pub fn with_target_copies(mut self, copies: usize) -> Self {
        self.target_copies = copies;
        self
    }
}

/// A running daemon; dropping it shuts the listeners down.
pub struct UrdDaemon {
    pub control_path: PathBuf,
    pub user_path: PathBuf,
    data_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
}

impl UrdDaemon {
    /// Bind the sockets (and the data plane, if configured) and start
    /// serving.
    pub fn spawn(config: DaemonConfig) -> std::io::Result<UrdDaemon> {
        std::fs::create_dir_all(&config.socket_dir)?;
        let control_path = config.socket_dir.join("urd.ctl.sock");
        let user_path = config.socket_dir.join("urd.user.sock");
        let _ = std::fs::remove_file(&control_path);
        let _ = std::fs::remove_file(&user_path);

        let engine = Engine::with_config(
            EngineConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
                chunk_size: config.chunk_size,
                remote_window: config.remote_window,
                target_copies: config.target_copies,
                ..EngineConfig::default()
            },
            config.policy.to_policy(),
        );
        for (host, addr) in &config.peers {
            engine.register_peer(host.clone(), addr.clone());
        }

        // "two separate 'control' and 'user' sockets are created with
        // differing file system permissions" — owner-only for control,
        // group/world-usable for the user socket. Binding happens in a
        // 0o700 staging directory and the socket is renamed into place
        // only after its permissions are set, so there is no window in
        // which `urd.ctl.sock` exists with umask-default permissions.
        let staging = config
            .socket_dir
            .join(format!(".urd-staging-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&staging);
        std::fs::create_dir_all(&staging)?;
        std::fs::set_permissions(&staging, std::fs::Permissions::from_mode(0o700))?;
        let bind_result = (|| {
            let ctl_listener = bind_with_mode(&staging, "urd.ctl.sock", 0o600, &control_path)?;
            let user_listener = bind_with_mode(&staging, "urd.user.sock", 0o666, &user_path)?;
            Ok::<_, std::io::Error>((ctl_listener, user_listener))
        })();
        let _ = std::fs::remove_dir_all(&staging);
        let (ctl_listener, user_listener) = bind_result?;

        // The remote-staging data plane (optional).
        let (data_listener, data_addr) = match &config.data_addr {
            Some(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let bound = listener.local_addr()?;
                engine.set_data_addr(bound.to_string());
                (Some(listener), Some(bound))
            }
            None => (None, None),
        };

        let n_reactors = config.reactors.clamp(1, 16);
        let mut reactors = Vec::with_capacity(n_reactors);
        for _ in 0..n_reactors {
            reactors.push(Arc::new(Reactor::new()?));
        }

        let shared = Arc::new(Shared {
            engine,
            shutdown: AtomicBool::new(false),
            shutdown_done: Mutex::new(false),
            next_conn: AtomicU64::new(0),
            next_reactor: AtomicU64::new(0),
            reactors,
            reactor_threads: Mutex::new(Vec::new()),
            conns: Mutex::new(HashMap::new()),
        });

        ctl_listener.set_nonblocking(true)?;
        user_listener.set_nonblocking(true)?;
        if let Some(l) = &data_listener {
            l.set_nonblocking(true)?;
        }
        let mut listeners = Some(ListenerSet {
            ctl: ListenerSlot::new(ctl_listener, KEY_CTL_LISTENER),
            user: ListenerSlot::new(user_listener, KEY_USER_LISTENER),
            data: data_listener.map(|l| ListenerSlot::new(l, KEY_DATA_LISTENER)),
        });
        let mut threads = shared.reactor_threads.lock();
        for (idx, reactor) in shared.reactors.iter().enumerate() {
            let shared = Arc::clone(&shared);
            let reactor = Arc::clone(reactor);
            let set = if idx == 0 { listeners.take() } else { None };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("urd-reactor-{idx}"))
                    .spawn(move || reactor_loop(shared, reactor, set))?,
            );
        }
        drop(threads);

        Ok(UrdDaemon {
            control_path,
            user_path,
            data_addr,
            shared,
        })
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Actual address of the data-plane listener (resolves port 0),
    /// `None` when remote staging is disabled.
    pub fn data_addr(&self) -> Option<SocketAddr> {
        self.data_addr
    }

    /// Stop accepting, join the engine's worker pool, wake every
    /// reactor so it drops its connections, join the reactors and all
    /// data-plane threads. Same path the wire-level
    /// `DaemonCommand::Shutdown` takes.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }
}

impl Drop for UrdDaemon {
    fn drop(&mut self) {
        self.shutdown();
        let _ = std::fs::remove_file(&self.control_path);
        let _ = std::fs::remove_file(&self.user_path);
    }
}

/// Bind a unix socket inside the 0o700 staging directory, set its
/// final mode, then rename it into place — the rename is what makes it
/// connectable, so no client ever sees intermediate permissions.
fn bind_with_mode(
    staging: &Path,
    name: &str,
    mode: u32,
    final_path: &Path,
) -> std::io::Result<UnixListener> {
    let tmp = staging.join(name);
    let listener = UnixListener::bind(&tmp)?;
    std::fs::set_permissions(&tmp, std::fs::Permissions::from_mode(mode))?;
    std::fs::rename(&tmp, final_path)?;
    Ok(listener)
}

// Poller keys for the fds a reactor owns besides connections. Conn
// ids count up from zero, so the top of the key space can never
// collide with them.
const KEY_WAKER: u64 = u64::MAX;
const KEY_CTL_LISTENER: u64 = u64::MAX - 1;
const KEY_USER_LISTENER: u64 = u64::MAX - 2;
const KEY_DATA_LISTENER: u64 = u64::MAX - 3;

/// A connection whose outbound buffer passes this mark stops being
/// read until the client drains responses — per-connection memory is
/// bounded even against a client that pipelines thousands of requests
/// and never reads.
const OUTBOUND_PAUSE_THRESHOLD: usize = 4 << 20;

/// Parked `WaitTask`/`WaitAny` subscriptions one connection may hold;
/// further waits get `ErrorCode::Busy` until completions drain.
const MAX_PARKED_WAITS: usize = 1024;

/// Accept-failure backoff: first retry after 10ms, doubling to 1s.
/// A persistent failure (EMFILE under a connection storm) must not
/// spin the reactor at 100% CPU, but recovery after fds free up should
/// still be prompt.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// A freshly accepted control/user connection in flight to its
/// assigned reactor.
struct NewConn {
    id: u64,
    stream: UnixStream,
    control: bool,
}

/// A finished parked wait on its way back to the connection that
/// issued it.
struct Completion {
    conn: u64,
    tag: u64,
    response: Response,
}

/// Per-reactor mailbox: the epoll instance, an eventfd waker, and the
/// two queues other threads use to hand it work.
struct Reactor {
    poller: Poller,
    waker: Waker,
    incoming: Mutex<Vec<NewConn>>,
    completions: Mutex<Vec<Completion>>,
}

impl Reactor {
    fn new() -> std::io::Result<Reactor> {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, KEY_WAKER)?;
        Ok(Reactor {
            poller,
            waker,
            incoming: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
        })
    }
}

/// One nonblocking control/user connection owned by a reactor thread.
struct Conn {
    stream: UnixStream,
    control: bool,
    reader: FrameReader,
    /// Framed responses not yet accepted by the kernel.
    out: BytesMut,
    /// Parked waits: request tag → engine subscription id, so a close
    /// can unsubscribe and a completion can clear its slot.
    parked: HashMap<u64, u64>,
    /// Interest currently registered with the poller.
    want_read: bool,
    want_write: bool,
}

/// One live data-plane connection: a clone of its stream (for
/// `shutdown(2)`) and its blocking handler thread (for joining).
struct ConnEntry {
    stream: TcpStream,
    thread: Option<ThreadId>,
    handle: Option<JoinHandle<()>>,
}

/// State shared by the reactors, the data-plane threads and the
/// wire-level `DaemonCommand::Shutdown`.
struct Shared {
    engine: Arc<Engine>,
    shutdown: AtomicBool,
    /// Serializes `initiate_shutdown`: a second caller blocks until the
    /// first finishes, then returns — `Drop` after a wire-level
    /// shutdown never races a half-torn-down daemon.
    shutdown_done: Mutex<bool>,
    next_conn: AtomicU64,
    next_reactor: AtomicU64,
    reactors: Vec<Arc<Reactor>>,
    reactor_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Live *data-plane* connections, keyed by an id the handler uses
    /// to deregister itself on exit. Control/user connections live
    /// inside their reactor and are not in this map.
    conns: Mutex<HashMap<u64, ConnEntry>>,
}

impl Shared {
    /// Flag shutdown, stop the worker pool (which also fails every
    /// parked wait), wake each reactor so it drops its connections and
    /// listeners, join the reactors, then unblock and join the
    /// blocking data-plane threads. The engine stops *first* so
    /// callbacks cannot fire into half-dead reactors with live
    /// subscriptions outstanding.
    fn initiate_shutdown(&self) {
        let mut done = self.shutdown_done.lock();
        if *done {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // norns-lint: allow(lock-across-blocking): engine shutdown joins its worker pool; intentionally serialised under `shutdown_done`
        self.engine.shutdown();
        for reactor in &self.reactors {
            reactor.waker.wake();
        }
        let me = std::thread::current().id();
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *self.reactor_threads.lock());
        for handle in threads {
            if handle.thread().id() != me {
                // Shutdown is deliberately serialised behind
                // `shutdown_done`: a second caller must block until
                // the joins complete so it observes a fully torn-down
                // daemon, and no other code path takes this mutex.
                // norns-lint: allow(lock-across-blocking): shutdown join is intentionally serialised under `shutdown_done`
                let _ = handle.join();
            }
        }
        // A connection accepted but never drained by its target
        // reactor would stay open in that mailbox for as long as the
        // daemon lives, and its client would block forever on a
        // socket nobody serves. Drop them: the client sees EOF.
        for reactor in &self.reactors {
            reactor.incoming.lock().clear();
        }
        // Reactor 0 (the only accept path) is joined: no further
        // data-plane connections can appear, so one pass drains all.
        // norns-lint: allow(lock-across-blocking): joining data-plane handlers is the point of shutdown; serialised under `shutdown_done`
        self.close_and_join_conns();
        *done = true;
    }

    /// Unblock data-plane handlers parked in read() and join their
    /// threads.
    fn close_and_join_conns(&self) {
        let me = std::thread::current().id();
        let drained: Vec<ConnEntry> = {
            let mut conns = self.conns.lock();
            conns.drain().map(|(_, e)| e).collect()
        };
        for entry in &drained {
            if entry.thread != Some(me) {
                let _ = entry.stream.shutdown(Shutdown::Both);
            }
        }
        for entry in drained {
            if entry.thread != Some(me) {
                if let Some(handle) = entry.handle {
                    let _ = handle.join();
                }
            }
        }
    }

    /// Track a freshly accepted data-plane connection *before* its
    /// handler thread exists, so a shutdown concurrent with the accept
    /// can always force-close the stream.
    fn register_stream(&self, id: u64, stream: TcpStream) {
        self.conns.lock().insert(
            id,
            ConnEntry {
                stream,
                thread: None,
                handle: None,
            },
        );
    }

    /// Attach the handler thread to its registered connection. If the
    /// handler already finished and deregistered itself (instant
    /// client hang-up), the entry is gone — dropping the handle
    /// detaches the already-exiting thread.
    fn attach_handle(&self, id: u64, handle: JoinHandle<()>) {
        if let Some(entry) = self.conns.lock().get_mut(&id) {
            entry.thread = Some(handle.thread().id());
            entry.handle = Some(handle);
        }
    }

    /// Called by each data-plane handler as it exits: drop the
    /// registry entry (detaching the JoinHandle) so the map only holds
    /// live connections.
    fn deregister_conn(&self, id: u64) {
        self.conns.lock().remove(&id);
    }
}

/// A listener a reactor owns, with its accept-failure backoff state.
/// On a persistent accept error (EMFILE) the listener is *deregistered*
/// from the poller — a failing fd would otherwise be level-triggered
/// ready forever — and re-armed after the backoff elapses.
struct ListenerSlot<L: AsRawFd> {
    listener: L,
    key: u64,
    armed: bool,
    rearm_at: Option<Instant>,
    backoff: Duration,
}

impl<L: AsRawFd> ListenerSlot<L> {
    fn new(listener: L, key: u64) -> ListenerSlot<L> {
        ListenerSlot {
            listener,
            key,
            armed: false,
            rearm_at: None,
            backoff: ACCEPT_BACKOFF_MIN,
        }
    }

    /// Register with the poller (at startup or when a backoff ends).
    fn arm(&mut self, poller: &Poller) {
        if !self.armed
            && poller
                .add(self.listener.as_raw_fd(), self.key, Interest::READ)
                .is_ok()
        {
            self.armed = true;
            self.rearm_at = None;
        }
    }

    /// Deregister after an accept failure and schedule the re-arm: a
    /// failing fd would otherwise be level-triggered ready forever.
    fn disarm(&mut self, poller: &Poller, now: Instant) {
        if self.armed {
            let _ = poller.delete(self.listener.as_raw_fd());
            self.armed = false;
        }
        self.rearm_at = Some(now + self.backoff);
        self.backoff = (self.backoff * 2).min(ACCEPT_BACKOFF_MAX);
    }

    fn rearm_if_due(&mut self, poller: &Poller, now: Instant) {
        if self.rearm_at.is_some_and(|at| now >= at) {
            self.arm(poller);
        }
    }
}

struct ListenerSet {
    ctl: ListenerSlot<UnixListener>,
    user: ListenerSlot<UnixListener>,
    data: Option<ListenerSlot<TcpListener>>,
}

impl ListenerSet {
    /// Earliest pending re-arm deadline, if any listener is backing
    /// off — becomes the epoll timeout so recovery needs no polling.
    fn next_rearm(&self) -> Option<Instant> {
        [
            self.ctl.rearm_at,
            self.user.rearm_at,
            self.data.as_ref().and_then(|d| d.rearm_at),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn rearm_due(&mut self, poller: &Poller, now: Instant) {
        self.ctl.rearm_if_due(poller, now);
        self.user.rearm_if_due(poller, now);
        if let Some(d) = &mut self.data {
            d.rearm_if_due(poller, now);
        }
    }
}

/// What a serviced connection wants next.
enum ConnFate {
    Keep,
    Closed,
}

/// What one decoded frame asks of the reactor.
enum Action {
    Continue,
    /// Protocol violation or unrecoverable connection state.
    Close,
    /// `DaemonCommand::Shutdown` — flush the Ok, then stop the daemon.
    Shutdown,
}

/// The reactor thread: multiplex owned connections (and, on reactor 0,
/// the listeners) over one epoll instance until shutdown.
fn reactor_loop(shared: Arc<Shared>, reactor: Arc<Reactor>, mut listeners: Option<ListenerSet>) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    if let Some(set) = &mut listeners {
        set.ctl.arm(&reactor.poller);
        set.user.arm(&reactor.poller);
        if let Some(d) = &mut set.data {
            d.arm(&reactor.poller);
        }
    }
    loop {
        events.clear();
        let timeout = listeners
            .as_ref()
            .and_then(|s| s.next_rearm())
            .map(|at| at.saturating_duration_since(Instant::now()));
        let _ = reactor.poller.wait(&mut events, timeout);
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        for ev in &events {
            match ev.key {
                KEY_WAKER => reactor.waker.drain(),
                KEY_CTL_LISTENER | KEY_USER_LISTENER => {
                    if let Some(set) = &mut listeners {
                        let control = ev.key == KEY_CTL_LISTENER;
                        let slot = if control { &mut set.ctl } else { &mut set.user };
                        accept_unix_burst(&shared, &reactor.poller, slot, control);
                    }
                }
                KEY_DATA_LISTENER => {
                    if let Some(slot) = listeners.as_mut().and_then(|s| s.data.as_mut()) {
                        accept_data_burst(&shared, &reactor.poller, slot);
                    }
                }
                key => {
                    if conns.contains_key(&key) {
                        service_event(&shared, &reactor, &mut conns, key);
                    }
                }
            }
        }
        drain_incoming(&shared, &reactor, &mut conns);
        drain_completions(&shared, &reactor, &mut conns);
        if let Some(set) = &mut listeners {
            set.rearm_due(&reactor.poller, Instant::now());
        }
    }
    // Shutdown: the engine has already failed every parked wait (the
    // leftover completions are dropped with the queues). Deregister
    // and drop every connection — clients see EOF — and drop the
    // listeners so further connects are refused.
    for (_, conn) in conns.drain() {
        let _ = reactor.poller.delete(conn.stream.as_raw_fd());
        for (_, sub) in conn.parked {
            shared.engine.unsubscribe_wait(sub);
        }
        shared.engine.conn_closed();
    }
}

/// Accept everything the kernel has queued on a control/user listener,
/// handing each connection round-robin to a reactor. On a real accept
/// failure (EMFILE during a storm): count it, disarm the listener and
/// back off — never spin.
fn accept_unix_burst(
    shared: &Arc<Shared>,
    poller: &Poller,
    slot: &mut ListenerSlot<UnixListener>,
    control: bool,
) {
    loop {
        // norns-lint: allow(reactor-blocking): the listener is nonblocking; accept returns WouldBlock instead of parking
        match slot.listener.accept() {
            Ok((stream, _)) => {
                slot.backoff = ACCEPT_BACKOFF_MIN;
                let id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
                let idx = shared.next_reactor.fetch_add(1, Ordering::SeqCst) as usize
                    % shared.reactors.len();
                // norns-lint: allow(panic-path): idx is taken modulo reactors.len() on the line above
                let target = &shared.reactors[idx];
                target.incoming.lock().push(NewConn {
                    id,
                    stream,
                    control,
                });
                target.waker.wake();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                shared.engine.note_accept_error();
                let sock = if control { "control" } else { "user" };
                eprintln!("urd: accept on {sock} socket failed: {e} (backing off)");
                slot.disarm(poller, Instant::now());
                return;
            }
        }
    }
}

/// Accept queued data-plane connections; each gets a blocking handler
/// thread (the data plane moves bulk payloads strictly sequentially).
fn accept_data_burst(shared: &Arc<Shared>, poller: &Poller, slot: &mut ListenerSlot<TcpListener>) {
    loop {
        // norns-lint: allow(reactor-blocking): the listener is nonblocking; accept returns WouldBlock instead of parking
        match slot.listener.accept() {
            Ok((stream, _)) => {
                slot.backoff = ACCEPT_BACKOFF_MIN;
                let _ = stream.set_nonblocking(false);
                // Nagle must be off on this end too, not only on the
                // client's. A pipelined client writes a window of
                // `Store`s and then only reads, so it has no data to
                // piggyback ACKs on. With Nagle on, each small `Ok`
                // reply after the first waits for the previous one's
                // ACK, which the client's delayed-ACK timer holds for
                // ~40 ms. The last partial segment of a large `Data`
                // reply can be held back the same way.
                let _ = stream.set_nodelay(true);
                let id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
                let registered = match stream.try_clone() {
                    Ok(clone) => {
                        shared.register_stream(id, clone);
                        true
                    }
                    // Clone failed: the handler still runs, it just
                    // cannot be force-unblocked (it will exit via the
                    // shutdown flag or client hang-up).
                    Err(_) => false,
                };
                let worker = std::thread::spawn({
                    let shared = Arc::clone(shared);
                    move || {
                        serve_data_connection(stream, &shared);
                        shared.deregister_conn(id);
                    }
                });
                if registered {
                    shared.attach_handle(id, worker);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                shared.engine.note_accept_error();
                eprintln!("urd: accept on data socket failed: {e} (backing off)");
                slot.disarm(poller, Instant::now());
                return;
            }
        }
    }
}

/// Move freshly accepted connections from the mailbox into this
/// reactor's epoll set.
fn drain_incoming(shared: &Arc<Shared>, reactor: &Arc<Reactor>, conns: &mut HashMap<u64, Conn>) {
    let fresh: Vec<NewConn> = std::mem::take(&mut *reactor.incoming.lock());
    for nc in fresh {
        if nc.stream.set_nonblocking(true).is_err() {
            continue;
        }
        if reactor
            .poller
            .add(nc.stream.as_raw_fd(), nc.id, Interest::READ)
            .is_err()
        {
            continue;
        }
        shared.engine.conn_opened();
        conns.insert(
            nc.id,
            Conn {
                stream: nc.stream,
                control: nc.control,
                reader: FrameReader::new(),
                out: BytesMut::new(),
                parked: HashMap::new(),
                want_read: true,
                want_write: false,
            },
        );
    }
}

/// Deliver finished parked waits: clear the parked slot, append the
/// tagged response, flush opportunistically. Completions for a
/// connection that already closed are dropped.
fn drain_completions(shared: &Arc<Shared>, reactor: &Arc<Reactor>, conns: &mut HashMap<u64, Conn>) {
    let done: Vec<Completion> = std::mem::take(&mut *reactor.completions.lock());
    for c in done {
        let Some(conn) = conns.get_mut(&c.conn) else {
            continue;
        };
        conn.parked.remove(&c.tag);
        push_tagged(&mut conn.out, c.tag, &c.response);
        if flush_conn(conn).is_err() {
            close_conn(shared, reactor, conns, c.conn);
        } else {
            update_interest(reactor, conns, c.conn);
        }
    }
}

/// Handle a readiness event on a connection.
fn service_event(
    shared: &Arc<Shared>,
    reactor: &Arc<Reactor>,
    conns: &mut HashMap<u64, Conn>,
    id: u64,
) {
    // A readiness event can race a close from the same epoll batch
    // (the earlier event closed the conn); nothing left to service.
    let Some(conn) = conns.get_mut(&id) else {
        return;
    };
    match service_conn(shared, reactor, conn, id) {
        ConnFate::Keep => update_interest(reactor, conns, id),
        ConnFate::Closed => close_conn(shared, reactor, conns, id),
    }
}

/// Deregister, unsubscribe parked waits, update the gauge, drop (which
/// closes the fd — the poller must forget it first).
fn close_conn(
    shared: &Arc<Shared>,
    reactor: &Arc<Reactor>,
    conns: &mut HashMap<u64, Conn>,
    id: u64,
) {
    if let Some(conn) = conns.remove(&id) {
        let _ = reactor.poller.delete(conn.stream.as_raw_fd());
        for (_, sub) in conn.parked {
            shared.engine.unsubscribe_wait(sub);
        }
        shared.engine.conn_closed();
    }
}

/// Re-register the interest set a connection currently needs: reads
/// pause while the outbound buffer is over the threshold, writes are
/// only watched while there are bytes to send.
fn update_interest(reactor: &Arc<Reactor>, conns: &mut HashMap<u64, Conn>, id: u64) {
    let Some(conn) = conns.get_mut(&id) else {
        return;
    };
    let want_read = conn.out.len() < OUTBOUND_PAUSE_THRESHOLD;
    let want_write = !conn.out.is_empty();
    if want_read != conn.want_read || want_write != conn.want_write {
        conn.want_read = want_read;
        conn.want_write = want_write;
        let _ = reactor.poller.modify(
            conn.stream.as_raw_fd(),
            id,
            Interest {
                readable: want_read,
                writable: want_write,
            },
        );
    }
}

/// The per-connection read→decode→execute→write cycle, run until the
/// socket has nothing more to give or backpressure pauses it.
fn service_conn(
    shared: &Arc<Shared>,
    reactor: &Arc<Reactor>,
    conn: &mut Conn,
    id: u64,
) -> ConnFate {
    let mut buf = [0u8; 64 * 1024];
    'outer: loop {
        // Decode phase: execute every complete frame already buffered,
        // unless the outbound queue is over the pause threshold.
        let mut paused = false;
        loop {
            if conn.out.len() >= OUTBOUND_PAUSE_THRESHOLD {
                paused = true;
                break;
            }
            match conn.reader.next_frame() {
                Ok(Some(frame)) => match handle_frame(shared, reactor, conn, id, frame) {
                    Action::Continue => {}
                    Action::Close => return ConnFate::Closed,
                    Action::Shutdown => {
                        // Deliver the Ok before the daemon tears down
                        // this connection with everything else.
                        flush_blocking(conn, Duration::from_secs(2));
                        // Close the submission window on this thread,
                        // not the join thread below: a client that saw
                        // the Ok must never get work accepted, even if
                        // the spawned teardown is still waiting to be
                        // scheduled when its next frame arrives.
                        shared.engine.begin_shutdown();
                        shared.shutdown.store(true, Ordering::SeqCst);
                        std::thread::spawn({
                            let shared = Arc::clone(shared);
                            move || shared.initiate_shutdown()
                        });
                        return ConnFate::Keep;
                    }
                },
                Ok(None) => break,
                Err(_) => return ConnFate::Closed, // protocol violation: drop the client
            }
        }
        if !paused {
            // Read phase: pull whatever the kernel buffered.
            match (&conn.stream).read(&mut buf) {
                Ok(0) => return ConnFate::Closed,
                Ok(n) => {
                    conn.reader.extend(&buf[..n]);
                    continue 'outer;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue 'outer,
                Err(_) => return ConnFate::Closed,
            }
        }
        // Write phase.
        if flush_conn(conn).is_err() {
            return ConnFate::Closed;
        }
        if paused && conn.out.len() < OUTBOUND_PAUSE_THRESHOLD {
            // The flush freed outbound space and whole frames may
            // already be buffered; no epoll event will announce them,
            // so go decode again.
            continue 'outer;
        }
        return ConnFate::Keep;
    }
}

/// Write as much of the outbound buffer as the kernel will take
/// without blocking. `Ok` with a non-empty remainder means "wait for
/// writable".
fn flush_conn(conn: &mut Conn) -> std::io::Result<()> {
    while !conn.out.is_empty() {
        match (&conn.stream).write(&conn.out[..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out.advance(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Best-effort synchronous flush with a deadline, for the one response
/// that must outrun daemon teardown: the `Shutdown` Ok.
fn flush_blocking(conn: &mut Conn, deadline: Duration) {
    let start = Instant::now();
    while !conn.out.is_empty() && start.elapsed() < deadline {
        match (&conn.stream).write(&conn.out[..]) {
            Ok(0) => return,
            Ok(n) => conn.out.advance(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // norns-lint: allow(reactor-blocking): bounded 1ms backoff while flushing the final Shutdown Ok; the reactor is already tearing down
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Append one tagged framed response.
fn push_tagged(out: &mut BytesMut, tag: u64, response: &Response) {
    let body = encode_tagged(tag, response);
    out.extend_from_slice(&frame_header(body.len()));
    out.extend_from_slice(&body);
}

/// Which response shape a parked wait produces on success.
#[derive(Clone, Copy)]
enum WaitShape {
    Task,
    Any,
}

/// The completion callback a parked wait hands the engine: shape the
/// response, queue it on the owning reactor, wake it. Runs on whatever
/// thread resolved the wait (worker, timer, or the reactor itself for
/// already-terminal tasks).
fn completion_callback(
    reactor: Arc<Reactor>,
    conn: u64,
    tag: u64,
    shape: WaitShape,
) -> WaitCallback {
    Box::new(move |result| {
        let response = match (shape, result) {
            (WaitShape::Task, Ok((_, stats))) => Response::TaskStatus(stats),
            (WaitShape::Any, Ok((task_id, stats))) => Response::TaskCompleted { task_id, stats },
            (_, Err((code, message))) => Response::Error { code, message },
        };
        reactor.completions.lock().push(Completion {
            conn,
            tag,
            response,
        });
        reactor.waker.wake();
    })
}

/// Park a `WaitTask`/`WaitAny` in the engine. An inline resolution
/// (already-terminal task, bad arguments, expired-at-zero timeout)
/// has already queued its completion by the time this returns; a
/// parked one records tag → subscription so close/duplicate handling
/// can find it.
#[allow(clippy::too_many_arguments)]
fn park_wait(
    shared: &Arc<Shared>,
    reactor: &Arc<Reactor>,
    conn: &mut Conn,
    conn_id: u64,
    tag: u64,
    shape: WaitShape,
    task_ids: &[u64],
    timeout_usec: u64,
    requester: Option<u64>,
) {
    if conn.parked.len() >= MAX_PARKED_WAITS {
        push_tagged(
            &mut conn.out,
            tag,
            &err_response(
                ErrorCode::Busy,
                format!("connection already has {MAX_PARKED_WAITS} waits in flight"),
            ),
        );
        return;
    }
    if conn.parked.contains_key(&tag) {
        push_tagged(
            &mut conn.out,
            tag,
            &err_response(
                ErrorCode::BadArgs,
                format!("tag {tag} already has a wait in flight"),
            ),
        );
        return;
    }
    let task_id = match shape {
        WaitShape::Task => match task_ids.first() {
            Some(&id) => id,
            None => {
                push_tagged(
                    &mut conn.out,
                    tag,
                    &err_response(ErrorCode::BadArgs, "WaitTask with no task id".to_string()),
                );
                return;
            }
        },
        WaitShape::Any => 0,
    };
    let cb = completion_callback(Arc::clone(reactor), conn_id, tag, shape);
    let sub = match shape {
        WaitShape::Task => shared
            .engine
            .wait_task_async(task_id, timeout_usec, requester, cb),
        WaitShape::Any => shared
            .engine
            .wait_any_async(task_ids, timeout_usec, requester, cb),
    };
    if let Some(sub_id) = sub {
        conn.parked.insert(tag, sub_id);
    }
}

/// Decode and execute one tagged frame from a control/user connection.
fn handle_frame(
    shared: &Arc<Shared>,
    reactor: &Arc<Reactor>,
    conn: &mut Conn,
    conn_id: u64,
    frame: Bytes,
) -> Action {
    let mut b = frame;
    let Ok(tag) = norns_proto::wire::get_varint(&mut b) else {
        return Action::Close; // untagged garbage: not v7
    };
    if conn.control {
        let req = match CtlRequest::decode(&mut b) {
            Ok(r) => r,
            Err(e) => {
                push_tagged(
                    &mut conn.out,
                    tag,
                    &err_response(ErrorCode::BadArgs, e.to_string()),
                );
                return Action::Continue;
            }
        };
        // Any bytes after the request are an inline memory payload.
        let payload = if b.is_empty() { None } else { Some(b.to_vec()) };
        match req {
            CtlRequest::SendCommand(DaemonCommand::Shutdown) => {
                push_tagged(&mut conn.out, tag, &Response::Ok);
                Action::Shutdown
            }
            CtlRequest::WaitTask {
                task_id,
                timeout_usec,
            } => {
                park_wait(
                    shared,
                    reactor,
                    conn,
                    conn_id,
                    tag,
                    WaitShape::Task,
                    &[task_id],
                    timeout_usec,
                    None,
                );
                Action::Continue
            }
            CtlRequest::WaitAny {
                task_ids,
                timeout_usec,
            } => {
                park_wait(
                    shared,
                    reactor,
                    conn,
                    conn_id,
                    tag,
                    WaitShape::Any,
                    &task_ids,
                    timeout_usec,
                    None,
                );
                Action::Continue
            }
            req => {
                let response = handle_ctl_sync(shared, req, payload);
                push_tagged(&mut conn.out, tag, &response);
                Action::Continue
            }
        }
    } else {
        let req = match UserRequest::decode(&mut b) {
            Ok(r) => r,
            Err(e) => {
                push_tagged(
                    &mut conn.out,
                    tag,
                    &err_response(ErrorCode::BadArgs, e.to_string()),
                );
                return Action::Continue;
            }
        };
        let payload = if b.is_empty() { None } else { Some(b.to_vec()) };
        match req {
            UserRequest::WaitTask {
                pid,
                task_id,
                timeout_usec,
            } => {
                park_wait(
                    shared,
                    reactor,
                    conn,
                    conn_id,
                    tag,
                    WaitShape::Task,
                    &[task_id],
                    timeout_usec,
                    Some(USER_KEY_BIT | pid),
                );
                Action::Continue
            }
            UserRequest::WaitAny {
                pid,
                task_ids,
                timeout_usec,
            } => {
                park_wait(
                    shared,
                    reactor,
                    conn,
                    conn_id,
                    tag,
                    WaitShape::Any,
                    &task_ids,
                    timeout_usec,
                    Some(USER_KEY_BIT | pid),
                );
                Action::Continue
            }
            req => {
                let response = handle_user_sync(&shared.engine, req, payload);
                push_tagged(&mut conn.out, tag, &response);
                Action::Continue
            }
        }
    }
}

/// Separates the user-socket (pid-keyed) and control-socket
/// (job-keyed) id spaces inside the scheduler's fairness domain.
const USER_KEY_BIT: u64 = 1 << 63;

fn err_response(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

fn from_engine(r: Result<(), (ErrorCode, String)>) -> Response {
    match r {
        Ok(()) => Response::Ok,
        Err((code, message)) => Response::Error { code, message },
    }
}

fn stats_response(r: Result<norns_proto::TaskStats, (ErrorCode, String)>) -> Response {
    match r {
        Ok(stats) => Response::TaskStatus(stats),
        Err((code, message)) => Response::Error { code, message },
    }
}

/// Control requests the reactor answers synchronously (everything but
/// the parked waits and `Shutdown`, which [`handle_frame`] intercepts;
/// their arms here are unreachable fallbacks).
fn handle_ctl_sync(shared: &Arc<Shared>, req: CtlRequest, payload: Option<Vec<u8>>) -> Response {
    let engine = &shared.engine;
    match req {
        CtlRequest::SendCommand(cmd) => match cmd {
            DaemonCommand::Ping => Response::Ok,
            DaemonCommand::PauseAccepting => {
                engine.set_accepting(false);
                Response::Ok
            }
            DaemonCommand::ResumeAccepting => {
                engine.set_accepting(true);
                Response::Ok
            }
            DaemonCommand::ClearCompletions => {
                engine.clear_completions();
                Response::Ok
            }
            // Intercepted by handle_frame before dispatch.
            DaemonCommand::Shutdown => Response::Ok,
        },
        CtlRequest::Status => Response::Status(engine.status()),
        CtlRequest::RegisterDataspace(d) => from_engine(engine.register_dataspace(d)),
        CtlRequest::UpdateDataspace(d) => from_engine(engine.update_dataspace(d)),
        CtlRequest::UnregisterDataspace { nsid } => from_engine(engine.unregister_dataspace(&nsid)),
        CtlRequest::RegisterJob(j) => from_engine(engine.register_job(j)),
        CtlRequest::UpdateJob(j) => from_engine(engine.update_job(j)),
        CtlRequest::UnregisterJob { job_id } => from_engine(engine.unregister_job(job_id)),
        CtlRequest::AddProcess { job_id, pid, .. } => from_engine(engine.add_process(job_id, pid)),
        CtlRequest::RemoveProcess { job_id, pid } => {
            from_engine(engine.remove_process(job_id, pid))
        }
        CtlRequest::RegisterPeer { host, data_addr } => {
            engine.register_peer(host, data_addr);
            Response::Ok
        }
        CtlRequest::SubmitTask { job_id, spec } => {
            if job_id & USER_KEY_BIT != 0 {
                // Bit 63 tags user-socket pid keys; a control job id
                // carrying it would collide with a pid's fairness and
                // cancel-ownership domain.
                return err_response(
                    ErrorCode::BadArgs,
                    format!("job id {job_id:#x} uses the reserved user-key bit"),
                );
            }
            match engine.submit(job_id, spec, payload) {
                Ok(task_id) => Response::TaskSubmitted { task_id },
                Err((code, message)) => Response::Error { code, message },
            }
        }
        CtlRequest::QueryTask { task_id } => match engine.query(task_id) {
            Some(stats) => Response::TaskStatus(stats),
            None => err_response(ErrorCode::NotFound, format!("task {task_id}")),
        },
        CtlRequest::CancelTask { task_id } => from_engine(engine.cancel(task_id, None)),
        CtlRequest::ListDir { nsid, path } => match engine.list_dir(&nsid, &path) {
            Ok(entries) => Response::DirEntries { entries },
            Err((code, message)) => Response::Error { code, message },
        },
        // Intercepted by handle_frame before dispatch.
        CtlRequest::WaitTask { .. } | CtlRequest::WaitAny { .. } => {
            err_response(ErrorCode::SystemError, "wait reached the sync path")
        }
    }
}

/// User requests the reactor answers synchronously (the parked waits
/// are intercepted by [`handle_frame`]).
fn handle_user_sync(engine: &Arc<Engine>, req: UserRequest, payload: Option<Vec<u8>>) -> Response {
    match req {
        UserRequest::GetDataspaceInfo => Response::Dataspaces(engine.dataspaces()),
        // User-socket tasks are keyed by the submitting process, with
        // the high bit set so pid-keyed entries can never collide with
        // control-socket job ids in the fairness domain.
        UserRequest::SubmitTask { pid, spec } => {
            // Only processes the scheduler registered via AddProcess
            // may submit, mirroring the simulated controller.
            if !engine.process_known(pid) {
                return err_response(
                    ErrorCode::NotRegistered,
                    format!("process {pid} is not registered to any job"),
                );
            }
            match engine.submit(USER_KEY_BIT | pid, spec, payload) {
                Ok(task_id) => Response::TaskSubmitted { task_id },
                Err((code, message)) => Response::Error { code, message },
            }
        }
        // Query/cancel through the world-connectable user socket are
        // scoped to the declared pid's own submissions — one job can
        // neither observe nor revoke another's transfers. As in the
        // paper's C API, the pid is caller-declared (the scheduler
        // registers job processes; SO_PEERCRED verification is future
        // hardening), so this guards against accidental cross-job
        // interference, not a malicious local process.
        UserRequest::QueryTask { pid, task_id } => {
            stats_response(engine.query_scoped(task_id, Some(USER_KEY_BIT | pid)))
        }
        UserRequest::CancelTask { pid, task_id } => {
            from_engine(engine.cancel(task_id, Some(USER_KEY_BIT | pid)))
        }
        // Intercepted by handle_frame before dispatch.
        UserRequest::WaitTask { .. } | UserRequest::WaitAny { .. } => {
            err_response(ErrorCode::SystemError, "wait reached the sync path")
        }
    }
}

/// Buffered responses past this size are flushed mid-batch: bounds the
/// daemon's per-connection memory against a peer pipelining many large
/// `Fetch` requests and gets bytes moving while the remaining frames
/// decode.
const RESPONSE_FLUSH_THRESHOLD: usize = 1 << 20;

/// Framed request/response loop for the blocking data plane; the
/// closure appends one fully framed response (header included) to the
/// output buffer. Responses to a batch of pipelined requests are
/// written back in as few syscalls as possible: one `write` per read
/// batch in the common case, with a mid-batch flush only past
/// [`RESPONSE_FLUSH_THRESHOLD`] — a peer keeping a window of requests
/// in flight is never stalled by per-response flushes.
fn serve_frames(
    stream: &mut (impl Read + Write),
    shared: &Arc<Shared>,
    mut handle: impl FnMut(Bytes, &mut BytesMut),
) {
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 64 * 1024];
    let mut out = BytesMut::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        reader.extend(&buf[..n]);
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => {
                    handle(frame, &mut out);
                    if out.len() >= RESPONSE_FLUSH_THRESHOLD {
                        if stream.write_all(&out).is_err() {
                            return;
                        }
                        out.clear();
                    }
                }
                Ok(None) => break,
                Err(_) => return, // protocol violation: drop the client
            }
        }
        if !out.is_empty() {
            if stream.write_all(&out).is_err() {
                return;
            }
            out.clear();
        }
    }
}

fn serve_data_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    // One scratch payload buffer per connection, grown to the largest
    // `Fetch` seen and reused across requests — pipelining multiplies
    // the request rate, and a fresh multi-megabyte allocation per
    // range would make the allocator the bottleneck.
    let mut scratch: Vec<u8> = Vec::new();
    serve_frames(&mut stream, shared, move |frame, out| {
        let (response, payload_len) = handle_data(&shared.engine, frame, &mut scratch);
        let body = response.to_bytes();
        out.extend_from_slice(&frame_header(body.len() + payload_len));
        out.extend_from_slice(&body);
        out.extend_from_slice(&scratch[..payload_len]);
    });
}

fn data_err(code: ErrorCode, message: impl Into<String>) -> (DataResponse, usize) {
    (
        DataResponse::Error {
            code,
            message: message.into(),
        },
        0,
    )
}

fn map_io_data(e: std::io::Error) -> (DataResponse, usize) {
    let code = match e.kind() {
        std::io::ErrorKind::NotFound => ErrorCode::NotFound,
        std::io::ErrorKind::PermissionDenied => ErrorCode::PermissionDenied,
        std::io::ErrorKind::StorageFull => ErrorCode::NoSpace,
        _ => ErrorCode::SystemError,
    };
    data_err(code, e.to_string())
}

/// Serve one data-plane request from a peer daemon. Every path goes
/// through the engine's dataspace containment checks — a remote peer
/// gets no more filesystem reach than a local client. A `Fetch`
/// payload is produced into `scratch` (grown but never shrunk, reused
/// across a connection's requests); the returned count is how many of
/// its leading bytes are the response payload.
fn handle_data(engine: &Arc<Engine>, frame: Bytes, scratch: &mut Vec<u8>) -> (DataResponse, usize) {
    let mut b = frame;
    let req = match DataRequest::decode(&mut b) {
        Ok(r) => r,
        Err(e) => return data_err(ErrorCode::BadArgs, e.to_string()),
    };
    let payload = b;
    match req {
        DataRequest::Stat { nsid, path } => {
            let local = match engine.resolve_local(&nsid, &path) {
                Ok(p) => p,
                Err((code, message)) => return data_err(code, message),
            };
            match std::fs::metadata(&local) {
                Ok(meta) if meta.is_dir() => data_err(
                    ErrorCode::BadArgs,
                    "directory trees cannot be staged remotely",
                ),
                Ok(meta) => (DataResponse::Stat { size: meta.len() }, 0),
                Err(e) => map_io_data(e),
            }
        }
        DataRequest::Fetch {
            nsid,
            path,
            offset,
            len,
        } => {
            if len > MAX_DATA_RANGE {
                return data_err(
                    ErrorCode::BadArgs,
                    format!("fetch of {len} bytes exceeds the {MAX_DATA_RANGE}-byte range cap"),
                );
            }
            let local = match engine.resolve_local(&nsid, &path) {
                Ok(p) => p,
                Err((code, message)) => return data_err(code, message),
            };
            let file = match std::fs::File::open(&local) {
                Ok(f) => f,
                Err(e) => return map_io_data(e),
            };
            let want = len as usize;
            if scratch.len() < want {
                // Grow-only: the zero-fill happens once per
                // high-water mark, not per request.
                scratch.resize(want, 0);
            }
            let mut filled = 0usize;
            while filled < want {
                use std::os::unix::fs::FileExt;
                match file.read_at(&mut scratch[filled..want], offset + filled as u64) {
                    Ok(0) => break, // EOF: short payload tells the peer
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return map_io_data(e),
                }
            }
            (DataResponse::Data, filled)
        }
        DataRequest::Prepare { nsid, path, size } => {
            let local = match engine.resolve_local(&nsid, &path) {
                Ok(p) => p,
                Err((code, message)) => return data_err(code, message),
            };
            if let Some(parent) = local.parent() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    return map_io_data(e);
                }
            }
            match std::fs::File::create(&local).and_then(|f| f.set_len(size)) {
                Ok(()) => (DataResponse::Ok, 0),
                Err(e) => map_io_data(e),
            }
        }
        DataRequest::Store { nsid, path, offset } => {
            if payload.len() as u64 > MAX_DATA_RANGE {
                return data_err(
                    ErrorCode::BadArgs,
                    format!(
                        "store of {} bytes exceeds the {MAX_DATA_RANGE}-byte range cap",
                        payload.len()
                    ),
                );
            }
            let local = match engine.resolve_local(&nsid, &path) {
                Ok(p) => p,
                Err((code, message)) => return data_err(code, message),
            };
            let file = match std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&local)
            {
                Ok(f) => f,
                Err(e) => return map_io_data(e),
            };
            use std::os::unix::fs::FileExt;
            match file.write_all_at(&payload, offset) {
                Ok(()) => (DataResponse::Ok, 0),
                Err(e) => map_io_data(e),
            }
        }
        DataRequest::Discard { nsid, path } => {
            let local = match engine.resolve_local(&nsid, &path) {
                Ok(p) => p,
                Err((code, message)) => return data_err(code, message),
            };
            match std::fs::remove_file(&local) {
                Ok(()) => (DataResponse::Ok, 0),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => (DataResponse::Ok, 0),
                Err(e) => map_io_data(e),
            }
        }
    }
}

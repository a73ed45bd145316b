//! The remote-staging backend: `RemotePath` transfers over TCP.
//!
//! NORNS' defining capability is asynchronous staging *between nodes*
//! (paper Table II: `process memory ⇒ remote path`, `local path ⇒
//! remote path`, …). This module is the client half of that data
//! plane: a daemon executing a task whose input or output is a
//! [`norns_proto::ResourceDesc::RemotePath`] resolves the peer host
//! through its peer registry and streams file ranges to or from the
//! peer's data-plane listener using the framed
//! [`DataRequest`]/[`DataResponse`] protocol (wire v4).
//!
//! Remote transfers reuse the whole chunk machinery: a transfer larger
//! than the configured chunk size decomposes into chunk sub-units fed
//! back through `norns-sched`, each unit moving one disjoint range.
//!
//! **Pipelining.** Within a unit, ranges no longer travel as strict
//! stop-and-wait round-trips: the worker keeps up to `window`
//! [`MAX_DATA_RANGE`]-bounded requests in flight on one connection,
//! writing a window of `Fetch`/`Store` frames before draining their
//! responses in request order (the peer's data-plane loop services a
//! connection's requests sequentially, so responses arrive in order).
//! That keeps the wire full instead of paying a full client⇆server
//! turnaround per range. `window == 1` reproduces the old
//! stop-and-wait behavior exactly. Both ends of a data connection
//! disable Nagle: while the client drains a window it only reads, so
//! its ACKs are delayed (~40 ms), and a serving end with Nagle on holds
//! every small reply behind the previous unACKed one, turning each
//! window into a delayed-ACK stall. Every drained response advances the
//! task's live progress atomic, and the abort flag is observed between
//! window refills, so `query()` shows a remote transfer advancing and
//! `cancel()` interrupts one mid-stream (in-flight responses are
//! drained so a cached connection never desynchronizes).
//!
//! The planning exchange rides in the first window. The planner writes
//! its `Prepare` (push) or `Stat` (pull) and chunk 0's first window of
//! `Store`s or `Fetch`es back to back, reads only the planning reply,
//! and hands the still-open exchange to its own unit, so a file of
//! one chunk or less costs one round trip, not two. A push enqueues its
//! other chunks only after the `Prepare` reply is read: no `Store` on
//! another connection can reach the peer before its `Prepare`. A pull
//! does not know the size when its first `Fetch`es leave, so they are
//! stepped for a full chunk, and once the `Stat` reply is read each
//! expected length is clipped to what the source holds past that
//! offset (the peer answers past EOF with a short or empty `Data`).
//!
//! **Syscall fast paths.** No payload byte is copied in userspace on
//! either end. Payloads leave a file through one sender,
//! [`send_file_range`]: a pushed `Store` here and a served `Fetch` on
//! the peer (`daemon.rs`) both travel disk→socket via `sendfile(2)`
//! where the kernel allows it, after the frame header and message went
//! out in one vectored write. The fallback (`sendfile` refused, or
//! `NORNS_NO_SENDFILE=1`) is a `pread` into a pooled per-thread buffer
//! followed by a single vectored write of header + message + payload —
//! never a fresh allocation per range, never two small writes per
//! frame. Both ends receive with [`norns_proto::read_frame`], which
//! reads each frame straight into an exactly sized buffer that the
//! decoded payload then borrows for its `pwrite`.
//!
//! Failure model: unknown peers are rejected at submission
//! (`NotFound`); unreachable peers fail the task with a bounded
//! connect timeout instead of hanging; a failed or cancelled pull
//! removes the preallocated local destination, a failed or cancelled
//! push asks the peer to discard the partial remote file. A failure on
//! a *cached* connection retries once on a fresh connection — the
//! remaining ranges, or, before the planning reply has arrived, the
//! whole planning flight — safe because every range names an absolute
//! offset and `Stat`/`Prepare` are re-runnable (idempotent replay). A
//! refused planning request (missing source, escaping path, no space, a
//! directory) is what the task reports, not the follow-on range errors;
//! the replies already in flight are drained so the cached connection
//! stays frame-aligned. A pulled payload whose length differs from the
//! clipped expectation means the source changed under the transfer:
//! the task fails and the local destination is removed.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fs::{self, File};
use std::io::{self, BufReader, IoSlice, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use norns_proto::{
    frame_header, read_frame, DataRequest, DataResponse, ErrorCode, Wire, MAX_DATA_RANGE,
};

use super::transfer::{map_io, ChunkGrid, PlanOutcome, TransferPlan};

/// Bound on establishing a data-plane connection: an unreachable peer
/// must fail the task, not hang a worker.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on any single data-plane read/write. Generous — one bounded
/// range, not a whole file, travels per syscall.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Default per-connection request window: enough in-flight ranges to
/// hide a round-trip of latency without making cancel drains costly.
/// Swept with perfbench on a 2-vCPU x86-64 VM (copy-free data plane,
/// planning riding the first window), 30 s runs: through a 2 ms RTT
/// shaper `wan_stage` moves 0.42–0.51 / 0.52–0.55 / 0.53–0.60 /
/// 0.60–0.63 GiB/s at windows 1 / 4 / 8 / 32 (three seeds); on
/// loopback `bulk_stage` moves 1.55–1.85 GiB/s at every one of these
/// windows (two seeds), within its run-to-run spread.
pub const DEFAULT_REMOTE_WINDOW: usize = 8;

/// Hard cap on the per-connection request window. Above this the
/// in-flight bytes stop buying latency hiding and only raise the cost
/// of a mid-stream cancel (which drains the window).
pub const MAX_REMOTE_WINDOW: usize = 256;

/// Floor on the pipelined range step: windowing a small chunk must not
/// shatter it into requests so small that per-frame overhead dominates.
const RANGE_STEP_FLOOR: u64 = 256 << 10;

/// Per-thread pooled buffer for the [`send_file_range`] fallback path
/// (when `sendfile` is unavailable): payloads are `pread` into this and
/// go out in one vectored write.
const REMOTE_POOL_BUF: usize = 1 << 20;

/// Bound on this worker's connection cache. Long-lived daemons see
/// peers come and go; without a cap every peer ever spoken to would
/// pin one socket per worker thread forever.
const CONN_CACHE_CAP: usize = 16;

/// Pause before the second (last-chance) `Discard` attempt in
/// [`RemoteTransfer::cleanup`] — long enough for a peer daemon
/// mid-restart to come back up and bind its data listener.
const DISCARD_RETRY_DELAY: Duration = Duration::from_millis(200);

/// Map a data-plane I/O error onto a wire error code. Timeouts get
/// their own code so callers can distinguish a dead peer mid-transfer
/// from a local filesystem failure.
fn map_net(e: io::Error) -> (ErrorCode, String) {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            (ErrorCode::Timeout, format!("data plane timeout: {e}"))
        }
        _ => (ErrorCode::SystemError, format!("data plane: {e}")),
    }
}

/// Is `sendfile(2)` still worth attempting? Cleared the first time the
/// syscall refuses a socket/file pair (old kernels, exotic
/// filesystems) and overridable via `NORNS_NO_SENDFILE=1` for
/// fallback-path benchmarking; every pushed `Store` and served `Fetch`
/// then takes the pooled `pread` + vectored-write path.
#[cfg(target_os = "linux")]
static SENDFILE_RUNTIME_OFF: AtomicBool = AtomicBool::new(false);

#[cfg(target_os = "linux")]
fn sendfile_enabled() -> bool {
    use std::sync::OnceLock;
    static DISABLED_BY_ENV: OnceLock<bool> = OnceLock::new();
    if *DISABLED_BY_ENV.get_or_init(|| {
        std::env::var("NORNS_NO_SENDFILE")
            .map(|v| v == "1")
            .unwrap_or(false)
    }) {
        return false;
    }
    !SENDFILE_RUNTIME_OFF.load(Ordering::Relaxed)
}

#[cfg(target_os = "linux")]
fn disable_sendfile() {
    SENDFILE_RUNTIME_OFF.store(true, Ordering::Relaxed);
}

/// One `sendfile(2)` round-trip with an explicit source offset (the
/// file's cursor is never touched — chunk workers share the `File`).
#[cfg(target_os = "linux")]
fn sendfile_once(socket: &TcpStream, file: &File, offset: u64, len: usize) -> io::Result<usize> {
    use std::os::unix::io::AsRawFd;
    // Declared directly (glibc) — the workspace builds offline with no
    // libc crate.
    // SAFETY: signature transcribed from the glibc header for x86_64
    // Linux (`sendfile64` is the default under _FILE_OFFSET_BITS=64).
    extern "C" {
        fn sendfile(
            out_fd: std::ffi::c_int,
            in_fd: std::ffi::c_int,
            offset: *mut i64,
            count: usize,
        ) -> isize;
    }
    let mut off = offset as i64;
    // SAFETY: both fds are live for the duration of the call (borrowed
    // from `&TcpStream` / `&File`), and `off` is a live stack i64 the
    // kernel updates in place.
    let n = unsafe { sendfile(socket.as_raw_fd(), file.as_raw_fd(), &mut off, len) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Errors that mean "this pair can't use `sendfile`, take the buffered
/// path" rather than "the transfer failed".
#[cfg(target_os = "linux")]
fn sendfile_wants_fallback(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Unsupported | io::ErrorKind::InvalidInput
    )
}

thread_local! {
    /// Per-thread pooled payload buffer for the `send_file_range`
    /// fallback path (transfer workers and data-plane serving threads).
    static RANGE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Write every byte of up to three slices through `write_vectored`,
/// coalescing frame header, request and payload into single syscalls.
fn write_all_vectored(stream: &mut TcpStream, parts: &[&[u8]]) -> io::Result<()> {
    let mut part = 0usize;
    let mut off = 0usize;
    // Skip leading empty parts.
    while part < parts.len() && parts[part].is_empty() {
        part += 1;
    }
    while part < parts.len() {
        let mut slices = [IoSlice::new(&[]); 4];
        let mut n_slices = 0;
        for (i, p) in parts.iter().enumerate().skip(part) {
            let s = if i == part { &p[off..] } else { &p[..] };
            if !s.is_empty() {
                slices[n_slices] = IoSlice::new(s);
                n_slices += 1;
            }
        }
        if n_slices == 0 {
            break;
        }
        let mut n = match stream.write_vectored(&slices[..n_slices]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "data connection refused bytes",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while n > 0 && part < parts.len() {
            let rem = parts[part].len() - off;
            if n >= rem {
                n -= rem;
                part += 1;
                off = 0;
            } else {
                off += n;
                n = 0;
            }
        }
        while part < parts.len() && off == parts[part].len() {
            part += 1;
            off = 0;
        }
    }
    Ok(())
}

/// Write the `prefix` slices (frame header and message) followed by
/// `len` bytes of `file` at `offset` — the one file-to-socket sender
/// of the data plane, used for a pushed `Store` and a served `Fetch`
/// alike. The payload travels disk→socket via `sendfile(2)` where
/// available; otherwise it is `pread` into this thread's pooled buffer
/// and written together with the prefix in one vectored write. A
/// source that comes up short (shrank mid-send) is an error: the frame
/// length is already committed, so the connection must be abandoned.
pub(crate) fn send_file_range(
    stream: &mut TcpStream,
    prefix: &[&[u8]],
    file: &File,
    offset: u64,
    len: u64,
) -> Result<(), (ErrorCode, String)> {
    #[cfg(target_os = "linux")]
    if sendfile_enabled() {
        write_all_vectored(stream, prefix).map_err(map_net)?;
        let mut sent = 0u64;
        while sent < len {
            let want = (len - sent).min(1 << 30) as usize;
            match sendfile_once(stream, file, offset + sent, want) {
                Ok(0) => return Err(truncated(offset + sent)),
                Ok(n) => sent += n as u64,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if sent == 0 && sendfile_wants_fallback(&e) => {
                    // First refusal on this box: remember and take
                    // the buffered path for the rest of the frame
                    // (the prefix is committed, only payload remains).
                    disable_sendfile();
                    break;
                }
                Err(e) => return Err(map_net(e)),
            }
        }
        if sent == len {
            return Ok(());
        }
        // sendfile refused before moving anything: the stream is right
        // after the prefix; fill the payload buffered.
        return write_payload_buffered(stream, &[], file, offset + sent, len - sent);
    }
    write_payload_buffered(stream, prefix, file, offset, len)
}

fn truncated(at: u64) -> (ErrorCode, String) {
    (
        ErrorCode::SystemError,
        format!("local source truncated at byte {at}"),
    )
}

/// Buffered path of [`send_file_range`]: `pread` the payload into the
/// pooled per-thread buffer and write `prefix` + payload in one
/// vectored write per buffer-full.
fn write_payload_buffered(
    stream: &mut TcpStream,
    prefix: &[&[u8]],
    file: &File,
    mut offset: u64,
    len: u64,
) -> Result<(), (ErrorCode, String)> {
    RANGE_BUF.with(|cell| {
        let mut buf = cell.borrow_mut();
        let want = (len.min(REMOTE_POOL_BUF as u64) as usize).max(1);
        if buf.len() < want {
            buf.resize(want, 0);
        }
        let mut remaining = len;
        let mut first = true;
        while remaining > 0 || first {
            let step = remaining.min(REMOTE_POOL_BUF as u64) as usize;
            let mut filled = 0usize;
            while filled < step {
                match file.read_at(&mut buf[filled..step], offset + filled as u64) {
                    Ok(0) => return Err(truncated(offset + filled as u64)),
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(map_io(e)),
                }
            }
            let parts: Vec<&[u8]> = if first {
                prefix.iter().copied().chain([&buf[..step]]).collect()
            } else {
                vec![&buf[..step]]
            };
            write_all_vectored(stream, &parts).map_err(map_net)?;
            offset += step as u64;
            remaining -= step as u64;
            first = false;
        }
        Ok(())
    })
}

/// One framed connection to a peer's data plane. Supports both the
/// single round-trip [`DataConn::call`] (`Discard`) and split
/// send/receive halves so transfers can keep a window of requests in
/// flight. Reads go through the `BufReader` (a window of small replies
/// costs one `read`, a large payload is read straight into its frame);
/// writes go through `get_mut()` to the same socket.
pub(crate) struct DataConn {
    stream: BufReader<TcpStream>,
}

impl DataConn {
    pub fn connect(addr: &str) -> Result<DataConn, (ErrorCode, String)> {
        let sockaddr: SocketAddr = addr
            .to_socket_addrs()
            .map_err(|e| (ErrorCode::BadArgs, format!("peer address {addr:?}: {e}")))?
            .next()
            .ok_or_else(|| {
                (
                    ErrorCode::BadArgs,
                    format!("peer address {addr:?} resolves to nothing"),
                )
            })?;
        let stream = TcpStream::connect_timeout(&sockaddr, CONNECT_TIMEOUT)
            .map_err(|e| (ErrorCode::SystemError, format!("peer {addr}: {e}")))?;
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        // Small request frames must leave at once. The serving daemon
        // disables Nagle on its end as well: a windowed exchange needs
        // both, or pipelined replies wait out the delayed-ACK timer.
        let _ = stream.set_nodelay(true);
        Ok(DataConn {
            stream: BufReader::new(stream),
        })
    }

    /// Send one request frame with no trailing payload (`Stat`,
    /// `Fetch`, `Prepare`, `Discard`): header + request in a single
    /// vectored write.
    fn send_request(&mut self, req: &DataRequest) -> Result<(), (ErrorCode, String)> {
        let body = req.to_bytes();
        let header = frame_header(body.len());
        write_all_vectored(self.stream.get_mut(), &[&header, &body]).map_err(map_net)
    }

    /// Send one `Store` frame whose payload is `len` bytes of `file`
    /// at `offset`.
    fn send_store(
        &mut self,
        req: &DataRequest,
        file: &File,
        offset: u64,
        len: u64,
    ) -> Result<(), (ErrorCode, String)> {
        let body = req.to_bytes();
        let header = frame_header(body.len() + len as usize);
        send_file_range(self.stream.get_mut(), &[&header, &body], file, offset, len)
    }

    /// Read one response frame (blocking, bounded by the stream's
    /// read timeout). Returns the decoded response and whatever
    /// payload followed it.
    fn recv_response(&mut self) -> Result<(DataResponse, Bytes), (ErrorCode, String)> {
        let mut frame = read_frame(&mut self.stream).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => (
                ErrorCode::SystemError,
                "peer closed the data connection".into(),
            ),
            io::ErrorKind::InvalidData => {
                (ErrorCode::SystemError, format!("data plane framing: {e}"))
            }
            _ => map_net(e),
        })?;
        let resp = DataResponse::decode(&mut frame)
            .map_err(|e| (ErrorCode::SystemError, format!("data plane decode: {e}")))?;
        Ok((resp, frame))
    }

    /// One round-trip: send `req`, read one response frame.
    pub fn call(
        &mut self,
        req: &DataRequest,
    ) -> Result<(DataResponse, Bytes), (ErrorCode, String)> {
        self.send_request(req)?;
        self.recv_response()
    }
}

/// A cached connection plus the logical timestamp of its last use
/// (eviction order).
struct CachedConn {
    conn: DataConn,
    last_used: u64,
}

thread_local! {
    /// Per-worker connection cache, keyed by peer address, with a
    /// monotonically increasing use counter. Each transfer borrows a
    /// cached connection instead of paying a TCP handshake per chunk;
    /// the cache is **bounded** at [`CONN_CACHE_CAP`] entries with
    /// least-recently-used eviction, so a long-lived daemon talking to
    /// a rotating peer set cannot leak one socket per former peer per
    /// worker thread.
    static CONN_CACHE: RefCell<(HashMap<String, CachedConn>, u64)> =
        RefCell::new((HashMap::new(), 0));
}

/// Take this worker's cached connection to `addr`, if any.
fn take_conn(addr: &str) -> Option<DataConn> {
    CONN_CACHE.with(|c| c.borrow_mut().0.remove(addr).map(|e| e.conn))
}

/// Return a healthy connection to the cache, evicting the
/// least-recently-used entry if the bound is hit.
fn store_conn(addr: &str, conn: DataConn) {
    CONN_CACHE.with(|c| {
        let (map, tick) = &mut *c.borrow_mut();
        *tick += 1;
        if !map.contains_key(addr) && map.len() >= CONN_CACHE_CAP {
            if let Some(oldest) = map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                map.remove(&oldest);
            }
        }
        map.insert(
            addr.to_string(),
            CachedConn {
                conn,
                last_used: *tick,
            },
        );
    });
}

/// Run one request/response round-trip against `addr`, reusing this
/// worker's cached connection. A failure on a *cached* connection may
/// just mean it went stale (peer restarted, idle timeout), so the
/// round-trip is retried once on a fresh connection — safe because
/// every data request is idempotent (`Fetch`/`Store` name absolute
/// ranges; `Stat`/`Prepare`/`Discard` are naturally re-runnable).
/// [`open_flight`] follows the same rule.
fn round_trip(addr: &str, req: &DataRequest) -> Result<(DataResponse, Bytes), (ErrorCode, String)> {
    if let Some(mut conn) = take_conn(addr) {
        if let Ok(result) = conn.call(req) {
            store_conn(addr, conn);
            return Ok(result);
        }
        // Stale: drop it and fall through to a fresh connection.
    }
    let mut conn = DataConn::connect(addr)?;
    let result = conn.call(req)?;
    store_conn(addr, conn);
    Ok(result)
}

/// The error a reply other than the expected one stands for.
fn refusal(resp: DataResponse) -> (ErrorCode, String) {
    match resp {
        DataResponse::Error { code, message } => (code, message),
        other => (
            ErrorCode::SystemError,
            format!("unexpected data response: {other:?}"),
        ),
    }
}

/// A round-trip whose only interesting success is `Ok`.
fn expect_ok(addr: &str, req: &DataRequest) -> Result<(), (ErrorCode, String)> {
    match round_trip(addr, req)? {
        (DataResponse::Ok, _) => Ok(()),
        (other, _) => Err(refusal(other)),
    }
}

/// Send range requests for `[*next, end)` in `step`s until `window`
/// are in flight, recording each as `(offset, len)`.
fn fill_window(
    inflight: &mut VecDeque<(u64, u64)>,
    window: usize,
    next: &mut u64,
    end: u64,
    step: u64,
    mut send: impl FnMut(u64, u64) -> Result<(), (ErrorCode, String)>,
) -> Result<(), (ErrorCode, String)> {
    while inflight.len() < window && *next < end {
        let len = step.min(end - *next);
        send(*next, len)?;
        inflight.push_back((*next, len));
        *next += len;
    }
    Ok(())
}

/// The planner's opening exchange on one connection: the planning
/// reply, read, and chunk 0's first window still in flight behind it.
type Flight = (DataConn, DataResponse, VecDeque<(u64, u64)>);

/// Write the `planning` request and then chunk 0's first window of
/// range requests over `[0, end)` back to back, without waiting in
/// between, and read the planning reply. The peer serves a connection's
/// requests in order, so the planning request takes effect before any
/// range behind it. A failure before the planning reply arrives, on a
/// cached connection, replays the whole flight once on a fresh one.
fn open_flight(
    addr: &str,
    planning: &DataRequest,
    window: usize,
    end: u64,
    step: u64,
    mut send_range: impl FnMut(&mut DataConn, u64, u64) -> Result<(), (ErrorCode, String)>,
) -> Result<Flight, (ErrorCode, String)> {
    let mut fly = |mut conn: DataConn| -> Result<Flight, (ErrorCode, String)> {
        conn.send_request(planning)?;
        let mut inflight = VecDeque::with_capacity(window);
        fill_window(&mut inflight, window, &mut 0, end, step, |off, len| {
            send_range(&mut conn, off, len)
        })?;
        let (reply, _) = conn.recv_response()?;
        Ok((conn, reply, inflight))
    };
    if let Some(flight) = take_conn(addr).and_then(|conn| fly(conn).ok()) {
        return Ok(flight);
    }
    fly(DataConn::connect(addr)?)
}

/// Read and drop the `n` replies still in flight behind a refused
/// planning request; the connection goes back to the cache only once
/// it is frame-aligned again.
fn drain_to_cache(addr: &str, mut conn: DataConn, n: usize) {
    if (0..n).all(|_| conn.recv_response().is_ok()) {
        store_conn(addr, conn);
    }
}

/// Create the pull destination and preallocate it (the fallocate
/// analog), as the local chunked copy does: units then write disjoint
/// interior ranges. A failed preallocation (ENOSPC) must not leave the
/// truncated destination behind — its existence would fake a staged
/// file.
fn create_destination(path: &Path, size: u64) -> Result<File, (ErrorCode, String)> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(map_io)?;
    }
    let local = File::create(path).map_err(map_io)?;
    if let Err(e) = local.set_len(size) {
        let _ = fs::remove_file(path);
        return Err(map_io(e));
    }
    Ok(local)
}

/// Which way the bytes flow, from the executing daemon's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// `RemotePath` input → local dataspace output.
    Pull,
    /// Local dataspace input → `RemotePath` output.
    Push,
}

/// How one windowed exchange over a connection ended.
enum WindowEnd {
    /// Every planned range was acknowledged.
    Complete,
    /// The abort flag interrupted the exchange; `true` iff the
    /// connection drained cleanly and may be reused.
    Cancelled(bool),
}

/// Chunk 0's exchange as the planner left it: the planning reply is
/// read and the first window of range requests is still in flight on
/// `conn`. The planner's own unit resumes it.
struct Primed {
    conn: DataConn,
    /// Chunk 0's length.
    len: u64,
    step: u64,
    inflight: VecDeque<(u64, u64)>,
}

/// A remote staging transfer decomposed into chunk sub-units.
pub(crate) struct RemoteTransfer {
    task_id: u64,
    direction: Direction,
    /// Peer data-plane address (resolved from the peer registry).
    addr: String,
    /// Remote endpoint inside the peer's dataspace.
    nsid: String,
    rpath: String,
    /// Local endpoint: the pull destination or push source.
    local: File,
    local_path: PathBuf,
    /// Requests kept in flight per connection (≥ 1; 1 = stop-and-wait).
    window: usize,
    grid: ChunkGrid,
    primed: Mutex<Option<Primed>>,
}

impl RemoteTransfer {
    /// Plan a pull: send the size probe with chunk 0's first window of
    /// `Fetch`es behind it, then preallocate the local destination and
    /// lay out the chunk grid once the size is known. Returns the plan
    /// and the now-known transfer size (the submit-time estimate was 0).
    #[allow(clippy::too_many_arguments)]
    pub fn plan_pull(
        task_id: u64,
        addr: &str,
        nsid: &str,
        rpath: &str,
        local_path: &Path,
        chunk_size: u64,
        window: usize,
        started: Instant,
        progress: Arc<AtomicU64>,
        abort: Arc<AtomicBool>,
    ) -> Result<(Arc<RemoteTransfer>, u64), (ErrorCode, String)> {
        let window = window.clamp(1, MAX_REMOTE_WINDOW);
        // The size is unknown until the `Stat` reply: step chunk 0's
        // `Fetch`es for a full chunk.
        let step = Self::range_step(chunk_size, window);
        let stat = DataRequest::Stat {
            nsid: nsid.into(),
            path: rpath.into(),
        };
        let (conn, reply, mut inflight) = open_flight(
            addr,
            &stat,
            window,
            chunk_size,
            step,
            |conn, offset, len| {
                conn.send_request(&DataRequest::Fetch {
                    nsid: nsid.into(),
                    path: rpath.into(),
                    offset,
                    len,
                })
            },
        )?;
        let planned = match reply {
            DataResponse::Stat { size } => {
                create_destination(local_path, size).map(|local| (local, size))
            }
            other => Err(refusal(other)),
        };
        let (local, size) = match planned {
            Ok(planned) => planned,
            Err(e) => {
                drain_to_cache(addr, conn, inflight.len());
                return Err(e);
            }
        };
        // Past EOF the peer answers short or empty: expect exactly that.
        for (off, len) in &mut inflight {
            *len = (*len).min(size.saturating_sub(*off));
        }
        let grid = ChunkGrid::new(size, chunk_size, started, progress, abort);
        let primed = Primed {
            conn,
            len: grid.claim_first(),
            step,
            inflight,
        };
        let plan = Arc::new(RemoteTransfer {
            task_id,
            direction: Direction::Pull,
            addr: addr.to_string(),
            nsid: nsid.to_string(),
            rpath: rpath.to_string(),
            local,
            local_path: local_path.to_path_buf(),
            window,
            grid,
            primed: Mutex::new(Some(primed)),
        });
        Ok((plan, size))
    }

    /// Plan a push: open the local source, then send the peer's
    /// `Prepare` (create and preallocate the destination) with chunk
    /// 0's first window of `Store`s behind it and read its reply. Only
    /// then may the other chunks' units start, so no `Store` on another
    /// connection can reach the peer before the `Prepare`.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_push(
        task_id: u64,
        addr: &str,
        nsid: &str,
        rpath: &str,
        local_path: &Path,
        chunk_size: u64,
        window: usize,
        started: Instant,
        progress: Arc<AtomicU64>,
        abort: Arc<AtomicBool>,
    ) -> Result<Arc<RemoteTransfer>, (ErrorCode, String)> {
        let local = File::open(local_path).map_err(map_io)?;
        let meta = local.metadata().map_err(map_io)?;
        if meta.is_dir() {
            return Err((
                ErrorCode::BadArgs,
                "directory trees cannot be staged to a remote node".into(),
            ));
        }
        let size = meta.len();
        let window = window.clamp(1, MAX_REMOTE_WINDOW);
        let grid = ChunkGrid::new(size, chunk_size, started, progress, abort);
        let first = grid.claim_first();
        let step = Self::range_step(first, window);
        let prepare = DataRequest::Prepare {
            nsid: nsid.into(),
            path: rpath.into(),
            size,
        };
        let (conn, reply, inflight) =
            open_flight(addr, &prepare, window, first, step, |conn, offset, len| {
                let store = DataRequest::Store {
                    nsid: nsid.into(),
                    path: rpath.into(),
                    offset,
                };
                conn.send_store(&store, &local, offset, len)
            })?;
        if reply != DataResponse::Ok {
            drain_to_cache(addr, conn, inflight.len());
            return Err(refusal(reply));
        }
        Ok(Arc::new(RemoteTransfer {
            task_id,
            direction: Direction::Push,
            addr: addr.to_string(),
            nsid: nsid.to_string(),
            rpath: rpath.to_string(),
            local,
            local_path: local_path.to_path_buf(),
            window,
            grid,
            primed: Mutex::new(Some(Primed {
                conn,
                len: first,
                step,
                inflight,
            })),
        }))
    }

    /// The per-request range step for a chunk of `len` bytes: aim for
    /// `window` requests per chunk so the window actually fills, but
    /// never below [`RANGE_STEP_FLOOR`] (per-frame overhead) and never
    /// above [`MAX_DATA_RANGE`] (the wire's range cap). With
    /// `window == 1` this is exactly the old stop-and-wait step.
    fn range_step(len: u64, window: usize) -> u64 {
        if len == 0 {
            return 1;
        }
        len.div_ceil(window as u64)
            .clamp(RANGE_STEP_FLOOR, MAX_DATA_RANGE)
            .min(len)
    }

    /// Send the request for the range at `off` of `len` bytes (no
    /// response handling — that's the drain half of the window loop).
    fn send_range(
        &self,
        conn: &mut DataConn,
        off: u64,
        len: u64,
    ) -> Result<(), (ErrorCode, String)> {
        match self.direction {
            Direction::Pull => conn.send_request(&DataRequest::Fetch {
                nsid: self.nsid.clone(),
                path: self.rpath.clone(),
                offset: off,
                len,
            }),
            Direction::Push => conn.send_store(
                &DataRequest::Store {
                    nsid: self.nsid.clone(),
                    path: self.rpath.clone(),
                    offset: off,
                },
                &self.local,
                off,
                len,
            ),
        }
    }

    /// Drain and apply the response for the range at `off` of `len`
    /// bytes (responses arrive in request order).
    fn recv_range(
        &self,
        conn: &mut DataConn,
        off: u64,
        len: u64,
    ) -> Result<(), (ErrorCode, String)> {
        let (resp, payload) = conn.recv_response()?;
        match (self.direction, resp) {
            (Direction::Pull, DataResponse::Data) => {
                if (payload.len() as u64) != len {
                    return Err((
                        ErrorCode::SystemError,
                        format!(
                            "remote source changed: {} bytes at offset {off}, expected {len}",
                            payload.len()
                        ),
                    ));
                }
                self.local.write_all_at(&payload, off).map_err(map_io)?;
                Ok(())
            }
            (Direction::Push, DataResponse::Ok) => Ok(()),
            (_, other) => Err(refusal(other)),
        }
    }

    /// Run one windowed exchange: keep up to `self.window` range
    /// requests in flight on `conn`, draining responses in order,
    /// starting with those already `inflight` (a resumed exchange).
    /// `acked` advances past each confirmed range so a retry after a
    /// connection failure resumes from the first unconfirmed byte.
    fn run_window(
        &self,
        conn: &mut DataConn,
        offset: u64,
        len: u64,
        step: u64,
        mut inflight: VecDeque<(u64, u64)>,
        acked: &mut u64,
    ) -> Result<WindowEnd, (ErrorCode, String)> {
        let end = offset + len;
        let mut next = inflight.back().map_or(offset, |&(off, l)| off + l);
        loop {
            // Refill the window (the abort flag is observed here,
            // between refills, exactly as the stop-and-wait path
            // observed it between round-trips).
            if !self.grid.abort_requested() {
                fill_window(
                    &mut inflight,
                    self.window,
                    &mut next,
                    end,
                    step,
                    |off, l| self.send_range(conn, off, l),
                )?;
            }
            if self.grid.abort_requested() {
                // Stop issuing and drain what's in flight so the
                // connection stays frame-aligned and reusable; a
                // drain failure just poisons the connection.
                let mut clean = true;
                while let Some((off, l)) = inflight.pop_front() {
                    if self.recv_range(conn, off, l).is_err() {
                        clean = false;
                        break;
                    }
                    *acked += l;
                    self.grid.progress().fetch_add(l, Ordering::Relaxed);
                }
                self.grid.cancel();
                return Ok(WindowEnd::Cancelled(clean));
            }
            let Some((off, l)) = inflight.pop_front() else {
                return Ok(WindowEnd::Complete);
            };
            self.recv_range(conn, off, l)?;
            *acked += l;
            self.grid.progress().fetch_add(l, Ordering::Relaxed);
        }
    }

    /// Move one claimed chunk over the wire with up to `window`
    /// requests in flight, checking the abort flag between refills, or
    /// resume chunk 0 from the planner's `primed` exchange. A failure
    /// on a cached connection replays the unconfirmed ranges once on a
    /// fresh connection (absolute offsets are idempotent); a primed
    /// connection has just answered the planning request, so it is not
    /// stale and gets no replay.
    fn transfer_range(
        &self,
        offset: u64,
        len: u64,
        primed: Option<Primed>,
    ) -> Result<(), (ErrorCode, String)> {
        let (mut conn, mut inflight, step, mut may_retry) = match primed {
            Some(p) => (p.conn, p.inflight, p.step, false),
            None => {
                if self.grid.abort_requested() {
                    self.grid.cancel();
                    return Ok(());
                }
                let step = Self::range_step(len, self.window);
                match take_conn(&self.addr) {
                    Some(conn) => (conn, VecDeque::new(), step, true),
                    None => (DataConn::connect(&self.addr)?, VecDeque::new(), step, false),
                }
            }
        };
        let mut acked = 0u64;
        loop {
            let resumed = std::mem::take(&mut inflight);
            match self.run_window(
                &mut conn,
                offset + acked,
                len - acked,
                step,
                resumed,
                &mut acked,
            ) {
                Ok(WindowEnd::Complete) | Ok(WindowEnd::Cancelled(true)) => {
                    store_conn(&self.addr, conn);
                    return Ok(());
                }
                Ok(WindowEnd::Cancelled(false)) => return Ok(()),
                Err(e) => {
                    if !may_retry {
                        return Err(e);
                    }
                    // The cached connection went stale: replay the
                    // remaining ranges on a fresh one.
                    may_retry = false;
                    conn = DataConn::connect(&self.addr)?;
                }
            }
        }
    }

    /// Remove whatever the interrupted transfer left behind: the
    /// preallocated local destination of a pull, or (best-effort) the
    /// partial remote destination of a push.
    fn cleanup(&self) {
        match self.direction {
            Direction::Pull => {
                let _ = fs::remove_file(&self.local_path);
            }
            Direction::Push => {
                let req = DataRequest::Discard {
                    nsid: self.nsid.clone(),
                    path: self.rpath.clone(),
                };
                if expect_ok(&self.addr, &req).is_ok() {
                    return;
                }
                // The first attempt rode this worker's cached
                // connection (or caught the peer mid-restart and got
                // a transient error / dead listener). Give the peer a
                // beat and replay the Discard once on an explicitly
                // fresh connection — mirroring `transfer_range`'s
                // stale-connection replay — otherwise the `Prepare`d
                // remote partial is stranded forever.
                std::thread::sleep(DISCARD_RETRY_DELAY);
                if let Ok(mut conn) = DataConn::connect(&self.addr) {
                    if let Ok((DataResponse::Ok, _)) = conn.call(&req) {
                        store_conn(&self.addr, conn);
                    }
                }
            }
        }
    }
}

impl TransferPlan for RemoteTransfer {
    fn task_id(&self) -> u64 {
        self.task_id
    }

    fn extra_units(&self) -> u64 {
        self.grid.extra_units()
    }

    fn run_unit(&self) -> bool {
        if let Some((offset, len)) = self.grid.claim() {
            let _guard = self.grid.enter();
            if let Err(e) = self.transfer_range(offset, len, None) {
                self.grid.fail(e);
            }
        }
        self.grid.complete_unit()
    }

    /// Resume chunk 0 where the planner left it, on the planner's
    /// connection, which then returns to the planning worker's cache.
    fn run_first_unit(&self) -> bool {
        let primed = self.primed.lock().take();
        if let Some(primed) = primed {
            let _guard = self.grid.enter();
            if let Err(e) = self.transfer_range(0, primed.len, Some(primed)) {
                self.grid.fail(e);
            }
        }
        self.grid.complete_unit()
    }

    fn abort_unit(&self, reason: &str) -> bool {
        self.grid.fail((ErrorCode::SystemError, reason.to_string()));
        self.grid.complete_unit()
    }

    fn finalize(&self) -> PlanOutcome {
        if let Some(outcome) = self.grid.take_failure_outcome() {
            self.cleanup();
            return outcome;
        }
        PlanOutcome::Done(self.grid.progress().load(Ordering::Relaxed))
    }

    fn elapsed_usec(&self) -> u64 {
        self.grid.elapsed_usec()
    }

    fn peak_workers(&self) -> u64 {
        self.grid.peak_workers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use norns_proto::encode_frame;
    use std::net::TcpListener;

    #[test]
    fn range_step_window_one_is_stop_and_wait() {
        // window = 1 must reproduce the old per-round-trip step:
        // MAX_DATA_RANGE-bounded, whole-range for small chunks.
        assert_eq!(RemoteTransfer::range_step(64 << 10, 1), 64 << 10);
        assert_eq!(RemoteTransfer::range_step(8 << 20, 1), MAX_DATA_RANGE);
        assert_eq!(
            RemoteTransfer::range_step(MAX_DATA_RANGE, 1),
            MAX_DATA_RANGE
        );
    }

    #[test]
    fn range_step_fills_the_window() {
        // An 8 MiB chunk with window 8 → 1 MiB steps (8 in flight).
        assert_eq!(RemoteTransfer::range_step(8 << 20, 8), 1 << 20);
        // Never below the floor …
        assert_eq!(RemoteTransfer::range_step(512 << 10, 8), RANGE_STEP_FLOOR);
        // … unless the chunk itself is smaller.
        assert_eq!(RemoteTransfer::range_step(64 << 10, 8), 64 << 10);
        // Never above the wire's range cap.
        assert_eq!(RemoteTransfer::range_step(1 << 30, 4), MAX_DATA_RANGE);
        // Zero-length chunks never divide by zero.
        assert_eq!(RemoteTransfer::range_step(0, 8), 1);
    }

    /// `send_file_range` delivers prefix + payload intact, and refuses
    /// a source that comes up short of the committed length instead of
    /// padding the frame (the serving daemon then drops the
    /// connection, so a torn frame never reaches the peer).
    #[test]
    fn send_file_range_sends_prefix_and_payload_and_refuses_a_short_source() {
        let dir = std::env::temp_dir().join(format!("norns-send-range-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("src.dat");
        let data: Vec<u8> = (0..3 * REMOTE_POOL_BUF + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        fs::write(&path, &data).unwrap();
        let file = File::open(&path).unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            std::io::Read::read_to_end(&mut rx, &mut got).unwrap();
            got
        });
        send_file_range(&mut tx, &[b"head", b"er"], &file, 5, data.len() as u64 - 5).unwrap();
        let err = send_file_range(&mut tx, &[], &file, 10, data.len() as u64).unwrap_err();
        assert!(err.1.contains("truncated"), "{err:?}");
        drop(tx);
        let got = reader.join().unwrap();
        assert_eq!(&got[..6], b"header");
        assert_eq!(&got[6..data.len() + 1], &data[5..]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The per-worker connection cache is bounded: inserting more
    /// peers than the cap evicts the least-recently-stored entry
    /// instead of growing without limit.
    #[test]
    fn conn_cache_is_bounded_with_lru_eviction() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Keep the server end alive so connects succeed.
        let server = std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                match stream {
                    Ok(s) => held.push(s),
                    Err(_) => break,
                }
                if held.len() >= CONN_CACHE_CAP + 5 {
                    break;
                }
            }
            held
        });
        for i in 0..CONN_CACHE_CAP + 5 {
            let conn = DataConn::connect(&addr.to_string()).unwrap();
            store_conn(&format!("peer-{i}"), conn);
        }
        let (len, has_first, has_last) = CONN_CACHE.with(|c| {
            let map = &c.borrow().0;
            (
                map.len(),
                map.contains_key("peer-0"),
                map.contains_key(&format!("peer-{}", CONN_CACHE_CAP + 4)),
            )
        });
        assert_eq!(len, CONN_CACHE_CAP, "cache must stay at the cap");
        assert!(!has_first, "oldest entry must be evicted");
        assert!(has_last, "newest entry must survive");
        let _ = server.join();
    }

    /// Regression: a failed push's `cleanup` used to fire its
    /// `Discard` best-effort exactly once; a peer mid-restart that
    /// answers with a transient error (or hangs up) left the
    /// `Prepare`d remote partial stranded forever. The Discard must be
    /// replayed once on a fresh connection, like `transfer_range`
    /// replays ranges.
    #[test]
    fn push_cleanup_retries_discard_against_restarting_peer() {
        use std::sync::atomic::AtomicUsize;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // `partial` models the peer-side `Prepare`d file; `discards`
        // counts Discard attempts. The scripted peer fails every
        // Store (so the push fails), then answers the *first* Discard
        // with a transient error and hangs up — a daemon caught
        // mid-restart — and honours any later one.
        let partial = Arc::new(AtomicBool::new(false));
        let discards = Arc::new(AtomicUsize::new(0));
        {
            let partial = Arc::clone(&partial);
            let discards = Arc::clone(&discards);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(mut stream) = stream else { break };
                    let partial = Arc::clone(&partial);
                    let discards = Arc::clone(&discards);
                    std::thread::spawn(move || {
                        loop {
                            let Ok(mut frame) = read_frame(&mut stream) else {
                                return;
                            };
                            let Ok(req) = DataRequest::decode(&mut frame) else {
                                return;
                            };
                            let resp = match req {
                                DataRequest::Prepare { .. } => {
                                    partial.store(true, Ordering::SeqCst);
                                    DataResponse::Ok
                                }
                                DataRequest::Store { .. } => DataResponse::Error {
                                    code: ErrorCode::NoSpace,
                                    message: "scripted store failure".into(),
                                },
                                DataRequest::Discard { .. } => {
                                    if discards.fetch_add(1, Ordering::SeqCst) == 0 {
                                        let resp = DataResponse::Error {
                                            code: ErrorCode::SystemError,
                                            message: "daemon restarting".into(),
                                        };
                                        let _ = stream.write_all(&encode_frame(&resp.to_bytes()));
                                        return; // hang up
                                    }
                                    partial.store(false, Ordering::SeqCst);
                                    DataResponse::Ok
                                }
                                _ => DataResponse::Error {
                                    code: ErrorCode::BadArgs,
                                    message: "unexpected request".into(),
                                },
                            };
                            if stream.write_all(&encode_frame(&resp.to_bytes())).is_err() {
                                return;
                            }
                        }
                    });
                }
            });
        }

        let dir = std::env::temp_dir().join(format!("norns-discard-retry-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let src = dir.join("src.dat");
        fs::write(&src, vec![3u8; 4096]).unwrap();

        let plan = RemoteTransfer::plan_push(
            9,
            &addr,
            "ds0",
            "dst.dat",
            &src,
            1 << 20,
            1,
            Instant::now(),
            Arc::new(AtomicU64::new(0)),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        assert!(partial.load(Ordering::SeqCst), "Prepare must have landed");
        assert!(plan.run_first_unit(), "a one-chunk push is one unit");
        let outcome = plan.finalize();
        assert!(
            matches!(outcome, PlanOutcome::Failed(..)),
            "scripted push must fail"
        );
        assert_eq!(
            discards.load(Ordering::SeqCst),
            2,
            "cleanup must replay the Discard once on a fresh connection"
        );
        assert!(
            !partial.load(Ordering::SeqCst),
            "the Prepare'd remote partial must be gone after cleanup"
        );
    }
}

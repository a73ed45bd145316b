//! Client libraries for the real daemon: [`PipelinedCtl`] (the
//! `nornsctl` API) and [`PipelinedUser`] (the `norns` API). Every
//! request carries a tag (wire v7), so one connection can keep many
//! requests outstanding and demultiplex responses arriving out of
//! order. A blocking call such as `wait` is `issue` plus `wait_for`
//! on its own tag; responses to other tags that arrive meanwhile are
//! stashed for a later drain.
//!
//! Each client owns one connection; spawn one per thread to model
//! concurrent processes (as the Fig. 4 benchmark does), or hold one
//! client and batch. [`CtlClient`] and [`UserClient`] are the same
//! types under their historical names.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use bytes::{Bytes, BytesMut};

use norns_proto::{
    decode_tagged, encode_frame, wire::put_varint, CtlRequest, DaemonCommand, DaemonStatus,
    DataspaceDesc, ErrorCode, FrameReader, JobDesc, Response, TaskSpec, TaskStats, UserRequest,
    Wire,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Protocol(String),
    /// The daemon replied with an error response.
    Remote {
        code: ErrorCode,
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Remote { code, message } => write!(f, "daemon error {code:?}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

pub type ClientResult<T> = Result<T, ClientError>;

/// Encode one v7 request payload: varint tag, request body, optional
/// trailing inline memory payload.
fn tagged_body(tag: u64, request: &Bytes, payload: Option<&[u8]>) -> BytesMut {
    let mut body = BytesMut::with_capacity(10 + request.len() + payload.map_or(0, <[u8]>::len));
    put_varint(&mut body, tag);
    body.extend_from_slice(request);
    if let Some(p) = payload {
        body.extend_from_slice(p);
    }
    body
}

pub fn expect_ok(r: Response) -> ClientResult<()> {
    match r {
        Response::Ok => Ok(()),
        Response::Error { code, message } => Err(ClientError::Remote { code, message }),
        other => Err(ClientError::Protocol(format!(
            "unexpected response: {other:?}"
        ))),
    }
}

pub fn expect_task_id(r: Response) -> ClientResult<u64> {
    match r {
        Response::TaskSubmitted { task_id } => Ok(task_id),
        Response::Error { code, message } => Err(ClientError::Remote { code, message }),
        other => Err(ClientError::Protocol(format!(
            "unexpected response: {other:?}"
        ))),
    }
}

pub fn expect_stats(r: Response) -> ClientResult<TaskStats> {
    match r {
        Response::TaskStatus(stats) => Ok(stats),
        Response::Error { code, message } => Err(ClientError::Remote { code, message }),
        other => Err(ClientError::Protocol(format!(
            "unexpected response: {other:?}"
        ))),
    }
}

pub fn expect_completion(r: Response) -> ClientResult<(u64, TaskStats)> {
    match r {
        Response::TaskCompleted { task_id, stats } => Ok((task_id, stats)),
        Response::Error { code, message } => Err(ClientError::Remote { code, message }),
        other => Err(ClientError::Protocol(format!(
            "unexpected response: {other:?}"
        ))),
    }
}

/// Match one tagged response frame against the set of outstanding
/// tags. A response whose tag was never issued — or was already
/// answered — is a protocol violation, surfaced as an error rather
/// than a panic or a silent drop.
pub fn demux(pending: &mut HashSet<u64>, frame: Bytes) -> ClientResult<(u64, Response)> {
    let (tag, response) =
        decode_tagged::<Response>(frame).map_err(|e| ClientError::Protocol(e.to_string()))?;
    if !pending.remove(&tag) {
        return Err(ClientError::Protocol(format!(
            "response carries unknown or duplicate tag {tag}"
        )));
    }
    Ok((tag, response))
}

/// One connection with many tagged requests outstanding (wire v7).
///
/// `issue_*` methods write a request and return its tag immediately;
/// responses are collected with `try_drain` (never blocks), `poll`
/// (bounded block) or `wait_for` (blocks for one specific tag,
/// stashing others). The connection exposes its raw fd so an event
/// loop can multiplex many pipelined connections over one `epoll` set.
struct PipelinedConn {
    stream: UnixStream,
    reader: FrameReader,
    next_tag: u64,
    pending: HashSet<u64>,
    stash: Vec<(u64, Response)>,
}

impl PipelinedConn {
    fn connect(path: &Path) -> ClientResult<Self> {
        Ok(PipelinedConn {
            stream: UnixStream::connect(path)?,
            reader: FrameReader::new(),
            next_tag: 0,
            pending: HashSet::new(),
            stash: Vec::new(),
        })
    }

    /// Requests issued but not yet answered (stashed responses count
    /// as answered).
    fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn issue(&mut self, request: Bytes, payload: Option<&[u8]>) -> ClientResult<u64> {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        let framed = encode_frame(&tagged_body(tag, &request, payload));
        self.stream.write_all(&framed)?;
        self.pending.insert(tag);
        Ok(tag)
    }

    /// Demultiplex every complete frame already buffered.
    fn drain_frames(&mut self, out: &mut Vec<(u64, Response)>) -> ClientResult<()> {
        while let Some(frame) = self
            .reader
            .next_frame()
            .map_err(|e| ClientError::Protocol(e.to_string()))?
        {
            out.push(demux(&mut self.pending, frame)?);
        }
        Ok(())
    }

    /// Collect whatever responses have already arrived, without ever
    /// blocking. Returns stashed responses first.
    fn try_drain(&mut self) -> ClientResult<Vec<(u64, Response)>> {
        let mut out = std::mem::take(&mut self.stash);
        self.drain_frames(&mut out)?;
        self.stream.set_nonblocking(true)?;
        let mut buf = [0u8; 64 * 1024];
        let read_result = loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break Err(()),
                Ok(n) => self.reader.extend(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let _ = self.stream.set_nonblocking(false);
                    return Err(e.into());
                }
            }
        };
        self.stream.set_nonblocking(false)?;
        self.drain_frames(&mut out)?;
        if read_result.is_err() && out.is_empty() && !self.pending.is_empty() {
            return Err(ClientError::Protocol("daemon closed the connection".into()));
        }
        Ok(out)
    }

    /// Collect responses, blocking up to `timeout` for the first
    /// arrival. An empty vec means the timeout elapsed.
    fn poll(&mut self, timeout: Duration) -> ClientResult<Vec<(u64, Response)>> {
        let mut out = std::mem::take(&mut self.stash);
        self.drain_frames(&mut out)?;
        if !out.is_empty() {
            return Ok(out);
        }
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let mut buf = [0u8; 64 * 1024];
        let r = self.stream.read(&mut buf);
        self.stream.set_read_timeout(None)?;
        match r {
            Ok(0) => Err(ClientError::Protocol("daemon closed the connection".into())),
            Ok(n) => {
                self.reader.extend(&buf[..n]);
                self.drain_frames(&mut out)?;
                Ok(out)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(out)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Block until the response for `tag` arrives; responses for other
    /// tags are stashed for a later drain.
    fn wait_for(&mut self, tag: u64) -> ClientResult<Response> {
        loop {
            if let Some(pos) = self.stash.iter().position(|(t, _)| *t == tag) {
                return Ok(self.stash.remove(pos).1);
            }
            if !self.pending.contains(&tag) {
                return Err(ClientError::Protocol(format!(
                    "tag {tag} has no outstanding request"
                )));
            }
            let mut buf = [0u8; 64 * 1024];
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(ClientError::Protocol("daemon closed the connection".into()));
            }
            self.reader.extend(&buf[..n]);
            let mut got = Vec::new();
            self.drain_frames(&mut got)?;
            self.stash.append(&mut got);
        }
    }
}

impl AsRawFd for PipelinedConn {
    fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

/// The administrative (`nornsctl`) client. Each blocking call issues
/// its request and then blocks for its own response, stashing
/// out-of-order arrivals; `issue_*` / `wait_for` / `try_drain` keep
/// many requests in flight — one connection per daemon is enough to
/// multiplex every wait an orchestrator has outstanding.
pub struct PipelinedCtl(PipelinedConn);

/// The administrative client under its historical name.
pub type CtlClient = PipelinedCtl;

impl PipelinedCtl {
    pub fn connect(path: &Path) -> ClientResult<Self> {
        Ok(PipelinedCtl(PipelinedConn::connect(path)?))
    }

    /// Requests issued but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.0.in_flight()
    }

    /// Issue a request, returning its tag without waiting.
    pub fn issue(&mut self, req: &CtlRequest, payload: Option<&[u8]>) -> ClientResult<u64> {
        self.0.issue(req.to_bytes(), payload)
    }

    /// Issue a `WaitTask` without blocking on it.
    pub fn issue_wait(&mut self, task_id: u64, timeout_usec: u64) -> ClientResult<u64> {
        self.issue(
            &CtlRequest::WaitTask {
                task_id,
                timeout_usec,
            },
            None,
        )
    }

    /// Issue a `WaitAny` without blocking on it.
    pub fn issue_wait_any(&mut self, task_ids: &[u64], timeout_usec: u64) -> ClientResult<u64> {
        self.issue(
            &CtlRequest::WaitAny {
                task_ids: task_ids.to_vec(),
                timeout_usec,
            },
            None,
        )
    }

    /// Issue a `QueryTask` without blocking on it.
    pub fn issue_query(&mut self, task_id: u64) -> ClientResult<u64> {
        self.issue(&CtlRequest::QueryTask { task_id }, None)
    }

    /// Issue a `Ping` without blocking on it.
    pub fn issue_ping(&mut self) -> ClientResult<u64> {
        self.issue(&CtlRequest::SendCommand(DaemonCommand::Ping), None)
    }

    /// Collect already-arrived responses without blocking.
    pub fn try_drain(&mut self) -> ClientResult<Vec<(u64, Response)>> {
        self.0.try_drain()
    }

    /// Collect responses, blocking up to `timeout` for the first one.
    pub fn poll(&mut self, timeout: Duration) -> ClientResult<Vec<(u64, Response)>> {
        self.0.poll(timeout)
    }

    /// Block for one specific response, stashing others.
    pub fn wait_for(&mut self, tag: u64) -> ClientResult<Response> {
        self.0.wait_for(tag)
    }

    fn call(&mut self, req: &CtlRequest, payload: Option<&[u8]>) -> ClientResult<Response> {
        let tag = self.issue(req, payload)?;
        self.wait_for(tag)
    }

    pub fn ping(&mut self) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::SendCommand(DaemonCommand::Ping), None)?)
    }

    pub fn send_command(&mut self, cmd: DaemonCommand) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::SendCommand(cmd), None)?)
    }

    pub fn status(&mut self) -> ClientResult<DaemonStatus> {
        match self.call(&CtlRequest::Status, None)? {
            Response::Status(s) => Ok(s),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    pub fn register_dataspace(&mut self, desc: DataspaceDesc) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::RegisterDataspace(desc), None)?)
    }

    pub fn unregister_dataspace(&mut self, nsid: &str) -> ClientResult<()> {
        expect_ok(self.call(
            &CtlRequest::UnregisterDataspace {
                nsid: nsid.to_string(),
            },
            None,
        )?)
    }

    pub fn register_job(&mut self, job: JobDesc) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::RegisterJob(job), None)?)
    }

    pub fn unregister_job(&mut self, job_id: u64) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::UnregisterJob { job_id }, None)?)
    }

    pub fn add_process(&mut self, job_id: u64, pid: u64, uid: u32, gid: u32) -> ClientResult<()> {
        expect_ok(self.call(
            &CtlRequest::AddProcess {
                job_id,
                pid,
                uid,
                gid,
            },
            None,
        )?)
    }

    pub fn register_peer(&mut self, host: &str, data_addr: &str) -> ClientResult<()> {
        expect_ok(self.call(
            &CtlRequest::RegisterPeer {
                host: host.to_string(),
                data_addr: data_addr.to_string(),
            },
            None,
        )?)
    }

    pub fn submit(
        &mut self,
        job_id: u64,
        spec: TaskSpec,
        payload: Option<&[u8]>,
    ) -> ClientResult<u64> {
        expect_task_id(self.call(&CtlRequest::SubmitTask { job_id, spec }, payload)?)
    }

    /// Block until the task is terminal or the timeout expires.
    /// `timeout_usec == 0` means wait forever; an expired nonzero
    /// timeout returns the task's in-flight snapshot (state still
    /// `Pending`/`InProgress`), never an error.
    pub fn wait(&mut self, task_id: u64, timeout_usec: u64) -> ClientResult<TaskStats> {
        let tag = self.issue_wait(task_id, timeout_usec)?;
        expect_stats(self.wait_for(tag)?)
    }

    /// Block until *any* task of the set is terminal (v5 batch wait):
    /// one round-trip returns the first completion as `(task_id,
    /// stats)` instead of N polling loops. `timeout_usec == 0` means
    /// wait forever; an expired nonzero timeout surfaces as a
    /// [`ClientError::Remote`] carrying [`ErrorCode::Timeout`].
    pub fn wait_any(
        &mut self,
        task_ids: &[u64],
        timeout_usec: u64,
    ) -> ClientResult<(u64, TaskStats)> {
        let tag = self.issue_wait_any(task_ids, timeout_usec)?;
        expect_completion(self.wait_for(tag)?)
    }

    pub fn query(&mut self, task_id: u64) -> ClientResult<TaskStats> {
        expect_stats(self.call(&CtlRequest::QueryTask { task_id }, None)?)
    }

    pub fn cancel(&mut self, task_id: u64) -> ClientResult<()> {
        expect_ok(self.call(&CtlRequest::CancelTask { task_id }, None)?)
    }

    pub fn list_dir(&mut self, nsid: &str, path: &str) -> ClientResult<Vec<String>> {
        match self.call(
            &CtlRequest::ListDir {
                nsid: nsid.to_string(),
                path: path.to_string(),
            },
            None,
        )? {
            Response::DirEntries { entries } => Ok(entries),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }
}

impl AsRawFd for PipelinedCtl {
    fn as_raw_fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
}

/// The application (`norns`) client. Requests carry this client's
/// pid, and the daemon scopes every task operation to it.
pub struct PipelinedUser {
    conn: PipelinedConn,
    pid: u64,
}

/// The application client under its historical name.
pub type UserClient = PipelinedUser;

impl PipelinedUser {
    pub fn connect(path: &Path) -> ClientResult<Self> {
        Ok(PipelinedUser {
            conn: PipelinedConn::connect(path)?,
            pid: std::process::id() as u64,
        })
    }

    pub fn with_pid(path: &Path, pid: u64) -> ClientResult<Self> {
        Ok(PipelinedUser {
            conn: PipelinedConn::connect(path)?,
            pid,
        })
    }

    /// Requests issued but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.conn.in_flight()
    }

    /// Issue a `SubmitTask` without blocking on it.
    pub fn issue_submit(&mut self, spec: TaskSpec, payload: Option<&[u8]>) -> ClientResult<u64> {
        let pid = self.pid;
        self.conn
            .issue(UserRequest::SubmitTask { pid, spec }.to_bytes(), payload)
    }

    /// Issue a `WaitTask` without blocking on it.
    pub fn issue_wait(&mut self, task_id: u64, timeout_usec: u64) -> ClientResult<u64> {
        let pid = self.pid;
        self.conn.issue(
            UserRequest::WaitTask {
                pid,
                task_id,
                timeout_usec,
            }
            .to_bytes(),
            None,
        )
    }

    /// Issue a `WaitAny` without blocking on it.
    pub fn issue_wait_any(&mut self, task_ids: &[u64], timeout_usec: u64) -> ClientResult<u64> {
        let pid = self.pid;
        self.conn.issue(
            UserRequest::WaitAny {
                pid,
                task_ids: task_ids.to_vec(),
                timeout_usec,
            }
            .to_bytes(),
            None,
        )
    }

    /// Issue a `QueryTask` without blocking on it.
    pub fn issue_query(&mut self, task_id: u64) -> ClientResult<u64> {
        let pid = self.pid;
        self.conn
            .issue(UserRequest::QueryTask { pid, task_id }.to_bytes(), None)
    }

    /// Issue a `CancelTask` without blocking on it.
    pub fn issue_cancel(&mut self, task_id: u64) -> ClientResult<u64> {
        let pid = self.pid;
        self.conn
            .issue(UserRequest::CancelTask { pid, task_id }.to_bytes(), None)
    }

    /// Collect already-arrived responses without blocking.
    pub fn try_drain(&mut self) -> ClientResult<Vec<(u64, Response)>> {
        self.conn.try_drain()
    }

    /// Collect responses, blocking up to `timeout` for the first one.
    pub fn poll(&mut self, timeout: Duration) -> ClientResult<Vec<(u64, Response)>> {
        self.conn.poll(timeout)
    }

    /// Block for one specific response, stashing others.
    pub fn wait_for(&mut self, tag: u64) -> ClientResult<Response> {
        self.conn.wait_for(tag)
    }

    /// `norns_get_dataspace_info`.
    pub fn dataspaces(&mut self) -> ClientResult<Vec<DataspaceDesc>> {
        let tag = self
            .conn
            .issue(UserRequest::GetDataspaceInfo.to_bytes(), None)?;
        match self.wait_for(tag)? {
            Response::Dataspaces(d) => Ok(d),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    /// `norns_submit` (Listing 2).
    pub fn submit(&mut self, spec: TaskSpec, payload: Option<&[u8]>) -> ClientResult<u64> {
        let tag = self.issue_submit(spec, payload)?;
        expect_task_id(self.wait_for(tag)?)
    }

    /// `norns_wait`. Scoped to this client's pid: waiting on another
    /// submitter's task yields `PermissionDenied` (v4).
    /// `timeout_usec == 0` means wait forever; an expired nonzero
    /// timeout returns the in-flight snapshot, never an error.
    pub fn wait(&mut self, task_id: u64, timeout_usec: u64) -> ClientResult<TaskStats> {
        let tag = self.issue_wait(task_id, timeout_usec)?;
        expect_stats(self.wait_for(tag)?)
    }

    /// Block until any task of the set is terminal (v5 batch wait);
    /// every id must be one of this client's own submissions.
    /// `timeout_usec == 0` means wait forever; an expired nonzero
    /// timeout surfaces as a [`ClientError::Remote`] carrying
    /// [`ErrorCode::Timeout`].
    pub fn wait_any(
        &mut self,
        task_ids: &[u64],
        timeout_usec: u64,
    ) -> ClientResult<(u64, TaskStats)> {
        let tag = self.issue_wait_any(task_ids, timeout_usec)?;
        expect_completion(self.wait_for(tag)?)
    }

    /// `norns_error` (status/stats query). Scoped to this client's pid
    /// like [`PipelinedUser::wait`].
    pub fn query(&mut self, task_id: u64) -> ClientResult<TaskStats> {
        let tag = self.issue_query(task_id)?;
        expect_stats(self.wait_for(tag)?)
    }

    /// Cancel a still-pending task. Only tasks submitted by this
    /// client's pid can be cancelled through the user API.
    pub fn cancel(&mut self, task_id: u64) -> ClientResult<()> {
        let tag = self.issue_cancel(task_id)?;
        expect_ok(self.wait_for(tag)?)
    }
}

impl AsRawFd for PipelinedUser {
    fn as_raw_fd(&self) -> RawFd {
        self.conn.as_raw_fd()
    }
}

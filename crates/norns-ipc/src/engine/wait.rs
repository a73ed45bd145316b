//! The wait path: `norns_wait` (Listing 2) and the batch `WaitAny`.
//!
//! There is one mechanism. A wait registers a one-shot callback in
//! the subscription registry; the reactor daemon parks wire waits
//! there without pinning a thread. Every terminal transition funnels
//! through `finish_task` or `mark_cancelled`, which fire the callbacks
//! indexed under that task (`by_task`). A nonzero timeout arms a
//! deadline on one lazily-spawned timer thread; `timeout_usec == 0`
//! parks forever. Shutdown stops the timer and fails whatever is still
//! parked. The blocking [`Engine::wait`] / [`Engine::wait_any`] are the
//! same subscription plus a one-slot channel the caller blocks on.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use norns_proto::{ErrorCode, TaskStats};

use super::Engine;

/// Callback behind an asynchronously-parked wait
/// ([`Engine::wait_task_async`] / [`Engine::wait_any_async`]): invoked
/// exactly once — from the worker thread that drives the terminal
/// transition, from the timer thread on timeout, or inline from the
/// subscribing thread when the wait can resolve immediately. Callbacks
/// must be quick and non-blocking (the reactor's pushes a completion
/// into a queue and wakes an epoll loop).
pub type WaitCallback = Box<dyn FnOnce(WaitResult) + Send>;

/// What a wait resolves to: the task named with its stats, or an
/// error.
pub type WaitResult = Result<(u64, TaskStats), (ErrorCode, String)>;

/// Timeout semantics differ between the two wait ops: an expired
/// `WaitTask` returns the in-flight snapshot, an expired `WaitAny` is
/// [`ErrorCode::Timeout`].
enum WaitKind {
    Single,
    Any,
}

/// One parked asynchronous wait.
struct WaitSub {
    kind: WaitKind,
    task_ids: Vec<u64>,
    callback: WaitCallback,
}

/// Registry of parked waits. `by_task` is the inverted index a
/// terminal transition consults; removal from `subs` under the lock is
/// what guarantees each callback fires exactly once even when a
/// completion, a timeout and an unsubscribe race.
#[derive(Default)]
pub(super) struct WaitSubs {
    next_id: u64,
    subs: HashMap<u64, WaitSub>,
    by_task: HashMap<u64, Vec<u64>>,
}

/// Deadline heap behind the lazily-spawned wait-timer thread.
#[derive(Default)]
pub(super) struct WaitTimer {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
    stop: bool,
}

impl Engine {
    /// Block until the task reaches a terminal state or the timeout
    /// expires (`timeout_usec == 0` → wait forever). An expired
    /// timeout returns the in-flight snapshot; an unknown id is
    /// `None`. Parks through [`Engine::wait_task_async`].
    pub fn wait(self: &Arc<Self>, task_id: u64, timeout_usec: u64) -> Option<TaskStats> {
        let (callback, done) = oneshot();
        self.wait_task_async(task_id, timeout_usec, None, callback);
        match done.recv() {
            Ok(Ok((_, stats))) => Some(stats),
            // Unknown id, or shutdown failed the subscription: report
            // whatever the table holds now.
            _ => self.query(task_id),
        }
    }

    /// Block until *any* task of the set reaches a terminal state.
    /// Parks through [`Engine::wait_any_async`], which states the
    /// result contract.
    pub fn wait_any(self: &Arc<Self>, task_ids: &[u64], timeout_usec: u64) -> WaitResult {
        let (callback, done) = oneshot();
        self.wait_any_async(task_ids, timeout_usec, None, callback);
        done.recv()
            .unwrap_or_else(|_| Err((ErrorCode::SystemError, "wait dropped unanswered".into())))
    }

    /// Park a `WaitTask`: `callback` receives the task's stats once it
    /// is terminal, or its in-flight snapshot when a nonzero timeout
    /// expires (`timeout_usec == 0` parks forever). An unknown id is
    /// [`ErrorCode::NotFound`]; `requester` applies the user-socket
    /// ownership rule of [`Engine::query_scoped`].
    ///
    /// Returns the subscription id when the wait parked (cancel it
    /// with [`Engine::unsubscribe_wait`] if the connection dies first),
    /// or `None` when the callback already fired — inline for
    /// validation failures and already-terminal tasks, or from a
    /// racing completion. Either way the callback is invoked exactly
    /// once.
    pub fn wait_task_async(
        self: &Arc<Self>,
        task_id: u64,
        timeout_usec: u64,
        requester: Option<u64>,
        callback: WaitCallback,
    ) -> Option<u64> {
        if let Err(e) = self.check_owner(task_id, requester) {
            callback(Err(e));
            return None;
        }
        self.subscribe_wait(WaitKind::Single, vec![task_id], timeout_usec, callback)
    }

    /// Park a `WaitAny`: `callback` receives the first task of the set
    /// to reach a terminal state as `(task_id, stats)`; when several
    /// already are, the earliest in `task_ids` wins. A nonzero timeout
    /// that expires is [`ErrorCode::Timeout`], an unknown id (or one
    /// collected by `clear_completions`) [`ErrorCode::NotFound`], an
    /// empty or oversized set [`ErrorCode::BadArgs`]; with a
    /// `requester`, every id must be its own. See
    /// [`Engine::wait_task_async`] for the callback contract.
    pub fn wait_any_async(
        self: &Arc<Self>,
        task_ids: &[u64],
        timeout_usec: u64,
        requester: Option<u64>,
        callback: WaitCallback,
    ) -> Option<u64> {
        if task_ids.is_empty() {
            callback(Err((ErrorCode::BadArgs, "empty wait set".into())));
            return None;
        }
        if task_ids.len() > norns_proto::MAX_WAIT_SET {
            callback(Err((
                ErrorCode::BadArgs,
                format!(
                    "wait set of {} exceeds the {}-id cap",
                    task_ids.len(),
                    norns_proto::MAX_WAIT_SET
                ),
            )));
            return None;
        }
        for &id in task_ids {
            if let Err(e) = self.check_owner(id, requester) {
                callback(Err(e));
                return None;
            }
        }
        self.subscribe_wait(WaitKind::Any, task_ids.to_vec(), timeout_usec, callback)
    }

    /// Drop a parked wait whose subscriber went away (connection
    /// closed). Returns whether the subscription was still live; its
    /// callback is dropped unfired.
    pub fn unsubscribe_wait(&self, sub_id: u64) -> bool {
        self.take_sub(sub_id).is_some()
    }

    /// Parked waits currently registered (observability for tests).
    pub fn parked_waits(&self) -> usize {
        self.wait_subs.lock().subs.len()
    }

    fn subscribe_wait(
        self: &Arc<Self>,
        kind: WaitKind,
        task_ids: Vec<u64>,
        timeout_usec: u64,
        callback: WaitCallback,
    ) -> Option<u64> {
        let sub_id = {
            let mut ws = self.wait_subs.lock();
            ws.next_id += 1;
            let sub_id = ws.next_id;
            for &t in &task_ids {
                ws.by_task.entry(t).or_default().push(sub_id);
            }
            ws.subs.insert(
                sub_id,
                WaitSub {
                    kind,
                    task_ids: task_ids.clone(),
                    callback,
                },
            );
            sub_id
        };
        // Subscribe *then* scan: a completion racing this registration
        // either sees the sub in `by_task` (and fires it) or we see
        // the terminal state here — a lost wakeup is impossible, and
        // remove-under-lock in `take_sub` picks the single firing
        // side. Scanning in set order gives the `WaitAny` tie-break
        // (earliest listed terminal task wins).
        for &t in &task_ids {
            match self.tasks.snapshot(t) {
                Some(stats) if stats.state.is_terminal() => {
                    if let Some(sub) = self.take_sub(sub_id) {
                        (sub.callback)(Ok((t, stats)));
                    }
                    return None;
                }
                Some(_) => {}
                None => {
                    if let Some(sub) = self.take_sub(sub_id) {
                        (sub.callback)(Err((ErrorCode::NotFound, format!("task {t}"))));
                    }
                    return None;
                }
            }
        }
        if timeout_usec > 0 {
            self.arm_wait_deadline(sub_id, Instant::now() + Duration::from_micros(timeout_usec));
        }
        Some(sub_id)
    }

    /// Remove a subscription and its index entries; whoever gets the
    /// `WaitSub` back owns the one permitted callback invocation.
    fn take_sub(&self, sub_id: u64) -> Option<WaitSub> {
        let mut ws = self.wait_subs.lock();
        let sub = ws.subs.remove(&sub_id)?;
        for t in &sub.task_ids {
            if let Some(v) = ws.by_task.get_mut(t) {
                v.retain(|s| *s != sub_id);
                if v.is_empty() {
                    ws.by_task.remove(t);
                }
            }
        }
        Some(sub)
    }

    /// Fire every subscription watching `task_id`. Called after a
    /// terminal transition is visible in the task table; callbacks run
    /// outside the registry lock.
    pub(super) fn notify_task_waiters(&self, task_id: u64, stats: &TaskStats) {
        let callbacks: Vec<WaitCallback> = {
            let mut ws = self.wait_subs.lock();
            let Some(sub_ids) = ws.by_task.remove(&task_id) else {
                return;
            };
            let mut cbs = Vec::with_capacity(sub_ids.len());
            for sid in sub_ids {
                if let Some(sub) = ws.subs.remove(&sid) {
                    for t in &sub.task_ids {
                        if *t != task_id {
                            if let Some(v) = ws.by_task.get_mut(t) {
                                v.retain(|s| *s != sid);
                                if v.is_empty() {
                                    ws.by_task.remove(t);
                                }
                            }
                        }
                    }
                    cbs.push(sub.callback);
                }
            }
            cbs
        };
        for cb in callbacks {
            cb(Ok((task_id, stats.clone())));
        }
    }

    fn arm_wait_deadline(self: &Arc<Self>, sub_id: u64, deadline: Instant) {
        {
            let mut tm = self.wait_timer.lock();
            if tm.stop {
                // Engine already shut down: resolve as an immediate
                // timeout rather than leaving the sub to dangle.
                drop(tm);
                self.fire_wait_timeout(sub_id);
                return;
            }
            tm.heap.push(Reverse((deadline, sub_id)));
            // The lazy spawn must stay under the `wait_timer` lock —
            // the same lock `shutdown` holds (nested outside
            // `wait_timer_thread`, matching its order) while it sets
            // `stop` and takes the handle. Checking the slot after
            // releasing `tm` races shutdown: it can join the old
            // thread between our release and our slot check, and the
            // respawn here would occupy the slot past shutdown.
            let mut slot = self.wait_timer_thread.lock();
            if slot.is_none() {
                let eng = Arc::clone(self);
                let spawned = std::thread::Builder::new()
                    .name("urd-wait-timer".into())
                    .spawn(move || eng.wait_timer_loop());
                match spawned {
                    Ok(handle) => *slot = Some(handle),
                    Err(e) => {
                        // Out of threads: no timer can ever fire, so
                        // resolve this wait as an immediate timeout
                        // instead of parking it forever. The heap
                        // entry we just pushed goes stale, which
                        // `fire_wait_timeout` tolerates.
                        eprintln!("urd: cannot spawn wait-timer thread: {e}; failing wait fast");
                        drop(slot);
                        drop(tm);
                        self.fire_wait_timeout(sub_id);
                        return;
                    }
                }
            }
        }
        self.wait_timer_cv.notify_one();
    }

    fn wait_timer_loop(self: &Arc<Self>) {
        let mut tm = self.wait_timer.lock();
        loop {
            if tm.stop {
                return;
            }
            match tm.heap.peek().copied() {
                None => self.wait_timer_cv.wait(&mut tm),
                Some(Reverse((deadline, sub_id))) if deadline <= Instant::now() => {
                    tm.heap.pop();
                    drop(tm);
                    self.fire_wait_timeout(sub_id);
                    tm = self.wait_timer.lock();
                }
                Some(Reverse((deadline, _))) => {
                    let _ = self.wait_timer_cv.wait_until(&mut tm, deadline);
                }
            }
        }
    }

    /// Resolve a deadline. A stale heap entry (sub already fired or
    /// unsubscribed) is a no-op — `take_sub` decides.
    fn fire_wait_timeout(&self, sub_id: u64) {
        let Some(sub) = self.take_sub(sub_id) else {
            return;
        };
        let result = match sub.kind {
            // An expired `WaitTask` returns the in-flight snapshot.
            WaitKind::Single => match sub.task_ids.first() {
                Some(&id) => match self.tasks.snapshot(id) {
                    Some(stats) => Ok((id, stats)),
                    None => Err((ErrorCode::NotFound, format!("task {id}"))),
                },
                None => Err((
                    ErrorCode::BadArgs,
                    "wait subscription with no task id".to_string(),
                )),
            },
            WaitKind::Any => Err((
                ErrorCode::Timeout,
                format!("no task of {} completed in time", sub.task_ids.len()),
            )),
        };
        (sub.callback)(result);
    }

    /// Whether the lazily-spawned wait-timer thread slot is occupied
    /// (observability for shutdown-race tests: after `shutdown` the
    /// slot must stay empty forever).
    pub fn wait_timer_alive(&self) -> bool {
        self.wait_timer_thread.lock().is_some()
    }

    /// Shutdown's last step: stop the wait-timer thread, then fail any
    /// wait subscription still parked. Every task is terminal once the
    /// workers are joined, so leftovers are registration races — they
    /// must not dangle past shutdown.
    pub(super) fn stop_waits(&self) {
        let timer = {
            let mut tm = self.wait_timer.lock();
            tm.stop = true;
            tm.heap.clear();
            self.wait_timer_thread.lock().take()
        };
        self.wait_timer_cv.notify_all();
        if let Some(handle) = timer {
            let _ = handle.join();
        }
        let leftovers: Vec<WaitSub> = {
            let mut ws = self.wait_subs.lock();
            ws.by_task.clear();
            ws.subs.drain().map(|(_, sub)| sub).collect()
        };
        for sub in leftovers {
            (sub.callback)(Err((ErrorCode::SystemError, "daemon shutting down".into())));
        }
    }
}

/// A [`WaitCallback`] that hands its one result to a blocked receiver.
pub(super) fn oneshot() -> (WaitCallback, mpsc::Receiver<WaitResult>) {
    let (tx, rx) = mpsc::sync_channel(1);
    let callback: WaitCallback = Box::new(move |result| {
        let _ = tx.send(result);
    });
    (callback, rx)
}

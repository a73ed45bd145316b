//! The sharded task table.
//!
//! The task table is the daemon's *control plane*: every `submit`,
//! `query`, `wait`, cancel and completion touches it. It is split into
//! N id-keyed shards, each behind its own mutex, so concurrent
//! submits, queries and terminal transitions on different tasks do
//! not serialize on one lock. Task ids are allocated sequentially, so
//! consecutive tasks land on different shards and the lock traffic
//! spreads evenly. The table holds no waiters: waits park in the
//! engine's subscription registry (`engine/wait.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use norns_proto::TaskStats;

/// Default shard count (rounded up to a power of two).
pub const DEFAULT_SHARDS: usize = 16;

/// One tracked task.
pub(crate) struct TaskEntry {
    pub stats: TaskStats,
    pub submitted_at: Instant,
    /// Scheduler key of the submitter (job id on the control path,
    /// tagged pid on the user path); authorizes user-socket cancels.
    pub owner: u64,
    /// Live byte counter advanced by the data plane as chunks land;
    /// [`TaskEntry::snapshot`] overlays it on `stats.bytes_moved`, so
    /// `query()` is a real progress API while the task is in flight.
    pub progress: Arc<AtomicU64>,
    /// Human-readable failure detail (the wire's `TaskStats` only
    /// carries the error code); surfaced via `Engine::error_message`.
    pub error_message: Option<String>,
    /// Mid-stream cancel request; decomposed transfers observe it
    /// between chunk ranges (and remote ones between round-trips).
    pub abort: Arc<AtomicBool>,
    /// Whether the running transfer honors `abort` — true once a
    /// worker decomposed it into a chunked or remote plan. Tasks
    /// without abort points (small inline copies) stay uncancellable
    /// once running, as before.
    pub abortable: bool,
}

impl TaskEntry {
    fn snapshot(&self) -> TaskStats {
        let mut stats = self.stats.clone();
        if !stats.state.is_terminal() {
            stats.bytes_moved = stats.bytes_moved.max(self.progress.load(Ordering::Relaxed));
        }
        stats
    }
}

struct Shard {
    entries: Mutex<HashMap<u64, TaskEntry>>,
}

/// The id-sharded task table.
pub(crate) struct ShardedTaskTable {
    shards: Box<[Shard]>,
    mask: u64,
}

impl ShardedTaskTable {
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedTaskTable {
            shards: (0..n)
                .map(|_| Shard {
                    entries: Mutex::new(HashMap::new()),
                })
                .collect(),
            mask: n as u64 - 1,
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, task_id: u64) -> &Shard {
        &self.shards[(task_id & self.mask) as usize]
    }

    pub fn insert(&self, task_id: u64, entry: TaskEntry) {
        self.shard(task_id).entries.lock().insert(task_id, entry);
    }

    /// Read-only access to one entry.
    pub fn read<R>(&self, task_id: u64, f: impl FnOnce(&TaskEntry) -> R) -> Option<R> {
        self.shard(task_id).entries.lock().get(&task_id).map(f)
    }

    /// Current stats with live progress overlaid.
    pub fn snapshot(&self, task_id: u64) -> Option<TaskStats> {
        self.read(task_id, TaskEntry::snapshot)
    }

    /// Mutate one entry.
    pub fn update<R>(&self, task_id: u64, f: impl FnOnce(&mut TaskEntry) -> R) -> Option<R> {
        self.shard(task_id).entries.lock().get_mut(&task_id).map(f)
    }

    /// Drop every entry the predicate rejects (completion-list GC).
    pub fn retain(&self, mut keep: impl FnMut(&TaskEntry) -> bool) {
        for shard in self.shards.iter() {
            shard.entries.lock().retain(|_, t| keep(t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use norns_proto::{ErrorCode, TaskState};

    fn entry(state: TaskState) -> TaskEntry {
        TaskEntry {
            stats: TaskStats {
                state,
                error: ErrorCode::Success,
                bytes_total: 100,
                bytes_moved: 0,
                wait_usec: 0,
                elapsed_usec: 0,
            },
            submitted_at: Instant::now(),
            owner: 1,
            error_message: None,
            progress: Arc::new(AtomicU64::new(0)),
            abort: Arc::new(AtomicBool::new(false)),
            abortable: false,
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedTaskTable::new(0).shard_count(), 1);
        assert_eq!(ShardedTaskTable::new(5).shard_count(), 8);
        assert_eq!(ShardedTaskTable::new(16).shard_count(), 16);
    }

    #[test]
    fn snapshot_overlays_live_progress() {
        let table = ShardedTaskTable::new(4);
        let e = entry(TaskState::InProgress);
        let progress = Arc::clone(&e.progress);
        table.insert(7, e);
        assert_eq!(table.snapshot(7).unwrap().bytes_moved, 0);
        progress.store(42, Ordering::Relaxed);
        assert_eq!(table.snapshot(7).unwrap().bytes_moved, 42);
        // Terminal stats are authoritative; progress is ignored.
        table.update(7, |t| {
            t.stats.state = TaskState::Finished;
            t.stats.bytes_moved = 100;
        });
        progress.store(999, Ordering::Relaxed);
        assert_eq!(table.snapshot(7).unwrap().bytes_moved, 100);
    }

    #[test]
    fn retain_drops_terminal_entries() {
        let table = ShardedTaskTable::new(4);
        table.insert(1, entry(TaskState::Finished));
        table.insert(2, entry(TaskState::Pending));
        table.retain(|t| !t.stats.state.is_terminal());
        assert!(table.snapshot(1).is_none());
        assert!(table.snapshot(2).is_some());
    }
}

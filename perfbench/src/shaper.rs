//! Delay shaper for `wan_stage`: a loopback TCP proxy that holds every
//! forwarded read for a fixed one-way delay, in each direction, with no
//! rate cap. One thread runs a poll loop over the listener and every
//! proxied connection pair.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::util::{median, us_between, wait_fds, Want};

/// Counters of one shaper (all monotonic).
#[derive(Default)]
pub struct ShaperStats {
    pub conns: AtomicU64,
    /// Reads forwarded from the connecting side to the upstream.
    pub up_reads: AtomicU64,
    pub up_bytes: AtomicU64,
    /// Reads forwarded from the upstream back to the connecting side.
    pub down_reads: AtomicU64,
    pub down_bytes: AtomicU64,
}

pub struct Shaper {
    pub addr: SocketAddr,
    pub stats: Arc<ShaperStats>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// One direction of a proxied pair: bytes read from `from`, waiting
/// for their release time before being written to the other side.
#[derive(Default)]
struct Pipe {
    queue: VecDeque<(Instant, Vec<u8>)>,
    /// Bytes of the queue's front already written.
    sent: usize,
    eof: bool,
    shut: bool,
}

struct Pair {
    client: TcpStream,
    upstream: TcpStream,
    up: Pipe,
    down: Pipe,
}

impl Shaper {
    /// Proxy `127.0.0.1:<ephemeral>` to `upstream`, delaying each
    /// direction by `one_way`.
    pub fn start(upstream: SocketAddr, one_way: Duration) -> io::Result<Shaper> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ShaperStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (st, flag) = (Arc::clone(&stats), Arc::clone(&stop));
        let handle = std::thread::Builder::new()
            .name("perfbench-shaper".into())
            .spawn(move || shaper_loop(listener, upstream, one_way, &st, &flag))?;
        Ok(Shaper {
            addr,
            stats,
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for Shaper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn shaper_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    delay: Duration,
    st: &ShaperStats,
    stop: &AtomicBool,
) {
    let mut pairs: Vec<Pair> = Vec::new();
    let mut buf = vec![0u8; 256 * 1024];
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        let mut wants = vec![Want {
            fd: listener.as_raw_fd(),
            read: true,
            write: false,
        }];
        let mut next_release: Option<Instant> = None;
        for p in &pairs {
            for (pipe, src, dst) in [
                (&p.up, &p.client, &p.upstream),
                (&p.down, &p.upstream, &p.client),
            ] {
                let due = pipe.queue.front().map(|(t, _)| *t);
                if let Some(t) = due {
                    next_release = Some(next_release.map_or(t, |n: Instant| n.min(t)));
                }
                wants.push(Want {
                    fd: src.as_raw_fd(),
                    read: !pipe.eof,
                    write: false,
                });
                wants.push(Want {
                    fd: dst.as_raw_fd(),
                    read: false,
                    write: due.is_some_and(|t| t <= now),
                });
            }
        }
        let timeout = next_release
            .map_or(Duration::from_millis(5), |t| {
                t.saturating_duration_since(now)
            })
            .min(Duration::from_millis(5));
        if wait_fds(&wants, timeout).is_err() {
            return;
        }
        while let Ok((client, _)) = listener.accept() {
            if let Ok(up) = TcpStream::connect(upstream) {
                let ok = [&client, &up]
                    .iter()
                    .all(|s| s.set_nodelay(true).is_ok() && s.set_nonblocking(true).is_ok());
                if ok {
                    st.conns.fetch_add(1, Ordering::Relaxed);
                    pairs.push(Pair {
                        client,
                        upstream: up,
                        up: Pipe::default(),
                        down: Pipe::default(),
                    });
                }
            }
        }
        let now = Instant::now();
        pairs.retain_mut(|p| {
            let up = pump(
                &mut p.up,
                &p.client,
                &p.upstream,
                &mut buf,
                now + delay,
                now,
                (&st.up_reads, &st.up_bytes),
            );
            let down = pump(
                &mut p.down,
                &p.upstream,
                &p.client,
                &mut buf,
                now + delay,
                now,
                (&st.down_reads, &st.down_bytes),
            );
            up.is_ok() && down.is_ok() && !(p.up.shut && p.down.shut)
        });
    }
}

/// Move one direction along: read what `src` has (stamped for
/// `release`), write what is due to `dst`, and pass an EOF on once its
/// queue is drained. An error drops the pair.
fn pump(
    pipe: &mut Pipe,
    mut src: &TcpStream,
    mut dst: &TcpStream,
    buf: &mut [u8],
    release: Instant,
    now: Instant,
    (reads, bytes): (&AtomicU64, &AtomicU64),
) -> io::Result<()> {
    while !pipe.eof {
        match src.read(buf) {
            Ok(0) => pipe.eof = true,
            Ok(n) => {
                reads.fetch_add(1, Ordering::Relaxed);
                bytes.fetch_add(n as u64, Ordering::Relaxed);
                pipe.queue.push_back((release, buf[..n].to_vec()));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    while let Some((due, data)) = pipe.queue.front() {
        if *due > now {
            break;
        }
        match dst.write(&data[pipe.sent..]) {
            Ok(n) => {
                pipe.sent += n;
                if pipe.sent == data.len() {
                    pipe.queue.pop_front();
                    pipe.sent = 0;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if pipe.eof && pipe.queue.is_empty() && !pipe.shut {
        let _ = dst.shutdown(Shutdown::Write);
        pipe.shut = true;
    }
    Ok(())
}

/// Measure the round-trip time through a fresh shaper (to a local echo
/// server) and require it to be close to `2 × one_way`: at least the
/// configured RTT and at most twice it plus 1 ms, which leaves room for
/// thread wake-up delays on a busy host while still catching a shaper
/// that does not delay or delays far too much. Three attempts are made
/// before failing. Returns the median RTT in µs.
pub fn self_check(one_way: Duration) -> io::Result<f64> {
    let want = 2.0 * one_way.as_secs_f64() * 1e6;
    let mut last = 0.0;
    for _ in 0..3 {
        last = measure_rtt(one_way)?;
        if last >= want && last <= 2.0 * want + 1000.0 {
            return Ok(last);
        }
    }
    Err(io::Error::other(format!(
        "shaper self-check: measured RTT {last:.0} us, configured {want:.0} us"
    )))
}

/// Median round-trip time in µs of 15 small echoes through a fresh
/// shaper.
fn measure_rtt(one_way: Duration) -> io::Result<f64> {
    let echo = TcpListener::bind("127.0.0.1:0")?;
    let echo_addr = echo.local_addr()?;
    let server = std::thread::spawn(move || -> io::Result<()> {
        let (mut s, _) = echo.accept()?;
        s.set_nodelay(true)?;
        let mut b = [0u8; 4096];
        loop {
            let n = s.read(&mut b)?;
            if n == 0 {
                return Ok(());
            }
            s.write_all(&b[..n])?;
        }
    });
    let shaper = Shaper::start(echo_addr, one_way)?;
    let mut rtts = Vec::new();
    let probe = (|| -> io::Result<()> {
        let mut c = TcpStream::connect(shaper.addr)?;
        c.set_nodelay(true)?;
        let msg = [7u8; 64];
        let mut back = [0u8; 64];
        for _ in 0..15 {
            let t0 = Instant::now();
            c.write_all(&msg)?;
            c.read_exact(&mut back)?;
            rtts.push(us_between(t0, Instant::now()));
            if back != msg {
                return Err(io::Error::other("shaper corrupted the echo"));
            }
        }
        Ok(())
    })();
    if probe.is_err() {
        // Unblock the echo server's accept if the probe never got there.
        let _ = TcpStream::connect(echo_addr);
    }
    let served = server
        .join()
        .map_err(|_| io::Error::other("echo thread panicked"))?;
    drop(shaper);
    probe?;
    served?;
    Ok(median(&rtts))
}

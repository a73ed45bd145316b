//! Seeded inputs, digests, order statistics and the few system calls
//! the standard library does not expose.

use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a run: the same seed
    /// and stream always give the same sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Exponential with the given mean (Poisson arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// `len` bytes of seeded content.
pub fn content(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed, 0x0C0A_7E47);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// 64-bit content digest: four independent multiply-rotate lanes over
/// little-endian words, folded with the length.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0x27D4_EB2F_1656_67C5,
    ];
    let mut lanes = K;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(K[(i + 1) % 4]).rotate_left(29);
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K[0]).rotate_left(31);
    }
    for &b in blocks.remainder() {
        h = (h ^ b as u64).wrapping_mul(K[1]);
    }
    h ^ (h >> 33)
}

/// `(length, digest)` of a file's current contents.
pub fn file_digest(path: &Path, buf: &mut Vec<u8>) -> io::Result<(u64, u64)> {
    use std::io::Read;
    buf.clear();
    fs::File::open(path)?.read_to_end(buf)?;
    Ok((buf.len() as u64, digest(buf)))
}

/// Count-weighted log-uniform sizes between `lo` and `hi`: one size in
/// each equal slice of the log range, all at the same seeded offset
/// within their slice, scaled to sum to exactly `total` and shuffled.
/// Every seed thus stages the same number of bytes with the same shape
/// of mix; the seed moves the sizes within their slices and the order.
pub fn log_uniform_mix(rng: &mut Rng, n: usize, lo: u64, hi: u64, total: u64) -> Vec<u64> {
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    let offset = rng.unit();
    let mut sizes: Vec<f64> = (0..n)
        .map(|k| (llo + (k as f64 + offset) / n as f64 * (lhi - llo)).exp())
        .collect();
    let scale = total as f64 / sizes.iter().sum::<f64>();
    sizes.iter_mut().for_each(|s| *s *= scale);
    let mut out: Vec<u64> = sizes.iter().map(|s| (*s as u64).max(1)).collect();
    let drift = total as i64 - out.iter().sum::<u64>() as i64;
    let last = out.len() - 1;
    out[last] = (out[last] as i64 + drift) as u64;
    rng.shuffle(&mut out);
    out
}

/// Nearest-rank percentile of unsorted samples; 0 when empty.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Microseconds from `a` to `b` (0 when `b` is earlier).
pub fn us_between(a: Instant, b: Instant) -> f64 {
    us(b.saturating_duration_since(a))
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// Readiness interest for [`wait_fds`].
#[derive(Clone, Copy)]
pub struct Want {
    pub fd: i32,
    pub read: bool,
    pub write: bool,
}

/// Block until one of `fds` is ready or `timeout` passes, with
/// microsecond resolution (epoll's millisecond timeout is too coarse to
/// pace an open loop). Returns, per fd, whether it reported any event.
pub fn wait_fds(fds: &[Want], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut raw: Vec<PollFd> = fds
        .iter()
        .map(|w| PollFd {
            fd: w.fd,
            events: if w.read { POLLIN } else { 0 } | if w.write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `raw` is a live, exclusively borrowed array of `raw.len()`
    // `struct pollfd`-layout records; `ts` outlives the call; a null
    // signal mask is allowed and leaves the mask unchanged.
    let rc = unsafe { ppoll(raw.as_mut_ptr(), raw.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(e);
    }
    Ok(raw.iter().map(|p| p.revents != 0).collect())
}

/// Kernel release, read from procfs.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The checkout's commit, read from `.git` without running git; a
/// source tree that is not a git checkout reports `unknown`.
pub fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Minimal JSON string escaping for the result lines.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

//! What the benchmark reads from the host: memory and CPU from `/proc`,
//! the provenance stamped on every result, and the seeded input stream.

use std::process::Command;

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    pels_bench::scalebench::peak_rss_bytes() as f64 / f64::from(1 << 20)
}

/// Nanoseconds a thread has run, the first field of its
/// `/proc/.../schedstat`.
fn parse_schedstat(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse::<f64>().ok().map(|ns| ns * 1e-9)
}

/// The calling thread's id (the first field of its `stat`) and CPU
/// seconds so far.
pub fn this_thread_cpu() -> (u64, f64) {
    let tid = std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0);
    (tid, thread_cpu_s(tid))
}

/// CPU seconds thread `tid` of this process has run, with nanosecond
/// resolution.
pub fn thread_cpu_s(tid: u64) -> f64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or(0.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// CPU seconds all threads of this process have run. Unlike `schedstat`,
/// which the kernel brings up to date only at a tick or a switch, this
/// includes the calling thread's current time slice, so while no other
/// thread is busy it can time calls that last microseconds.
pub fn process_cpu_now() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall time over which each half of a run's set-up samples is spread.
pub const SETUP_SPAN: std::time::Duration = std::time::Duration::from_millis(500);

/// Takes `n` samples with `sample`, sleeping between them so they spread
/// over about [`SETUP_SPAN`] plus their own time, and returns what each
/// measured. A shared host's speed changes between states that last
/// fractions of a second to seconds; samples taken in one burst would all
/// see one state. After each sleep one call is made and discarded, so the
/// sample kept is taken with warm caches: cold ones read as much of how
/// busy the host's other tenants keep its caches as of the call.
///
/// # Errors
///
/// Returns the first error of `sample`.
pub fn spread_samples<E>(
    n: usize,
    mut sample: impl FnMut() -> Result<f64, E>,
) -> Result<Vec<f64>, E> {
    let gap = SETUP_SPAN / n.max(1) as u32;
    (0..n)
        .map(|_| {
            std::thread::sleep(gap);
            sample()?;
            sample()
        })
        .collect()
}

/// Worker threads the `pels` CLI defaults to.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// Provenance of a result as one JSON object: CPU model, `nproc`, kernel,
/// `rustc -V`, git HEAD with a dirty flag, and the seed.
pub fn provenance(workload: &str, seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    // Only a checkout that is itself a git work tree has a HEAD to report;
    // asking git elsewhere could name an enclosing repository's commit.
    let in_git = std::path::Path::new(".git").exists();
    let head = in_git.then(|| command_line("git", &["rev-parse", "HEAD"])).flatten();
    let dirty = head
        .as_ref()
        .and_then(|_| command_line("git", &["status", "--porcelain"]))
        .map(|s| !s.is_empty());
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"cpu_model\":{},\"nproc\":{},\"kernel\":{},\"rustc\":{},\"git_head\":{},\"git_dirty\":{}}}",
        json_str(workload),
        json_str(&cpu),
        default_workers(),
        json_str(&kernel),
        json_str(&rustc),
        head.as_deref().map_or("null".into(), json_str),
        dirty.map_or("null".into(), |d| d.to_string()),
    )
}

/// SplitMix64: the benchmark's own seeded stream, so inputs depend only on
/// `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_reads_run_time_in_seconds() {
        assert_eq!(parse_schedstat("2500000000 120 7\n"), Some(2.5));
        assert!(this_thread_cpu().0 > 0);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = process_cpu_now();
        let mut x = 0u64;
        for i in 0..10_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_now() > t0, "{x}");
    }
}

//! Process-wide resource readings (Linux).

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// User plus system CPU time of the whole process, every thread included
/// (also threads that have exited), in seconds, at nanosecond resolution.
/// `None` when the clock is unavailable.
pub fn cpu_seconds() -> Option<f64> {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned `Timespec` with the
    // C layout of that struct on 64-bit Linux.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    (status == 0).then_some(time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9)
}

/// Peak resident set size of the process in megabytes (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs the process may use.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    #[test]
    fn readings_are_positive() {
        assert!(super::cpu_seconds().expect("linux /proc") >= 0.0);
        assert!(super::peak_rss_mb().expect("linux /proc") > 0.0);
    }
}

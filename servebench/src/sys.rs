//! The two operating-system facts the benchmark needs: the process's
//! peak resident set, and a fine timer slack for the open-loop
//! driver's sleeps. Both are direct C library calls (Linux only).

#[cfg(target_os = "linux")]
mod ffi {
    use std::ffi::{c_int, c_long, c_ulong};

    /// `struct rusage` as Linux lays it out on 64-bit targets.
    #[repr(C)]
    pub struct RUsage {
        pub utime: [c_long; 2],
        pub stime: [c_long; 2],
        pub maxrss: c_long,
        pub rest: [c_long; 13],
    }

    pub const RUSAGE_SELF: c_int = 0;
    pub const RUSAGE_THREAD: c_int = 1;
    pub const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        pub fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
        pub fn prctl(option: c_int, ...) -> c_int;
    }

    pub fn slack_arg(ns: u64) -> c_ulong {
        c_ulong::try_from(ns).unwrap_or(c_ulong::MAX)
    }
}

#[cfg(target_os = "linux")]
fn rusage(who: std::ffi::c_int) -> std::io::Result<ffi::RUsage> {
    let mut usage = ffi::RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // kernel's 64-bit layout (2 timevals, then 14 longs), and
    // getrusage writes only within it.
    let rc = unsafe { ffi::getrusage(who, &mut usage) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(usage)
}

/// Peak resident set size of this process, in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> std::io::Result<f64> {
    // Linux reports ru_maxrss in KiB.
    Ok(rusage(ffi::RUSAGE_SELF)?.maxrss as f64 / 1024.0)
}

/// CPU time (user + system, seconds) used so far by every thread of
/// this process except the calling one: with the calling thread as the
/// load driver, the CPU time the server spent.
#[cfg(target_os = "linux")]
pub fn cpu_seconds_of_other_threads() -> std::io::Result<f64> {
    let secs = |u: ffi::RUsage| {
        let tv = |t: [std::ffi::c_long; 2]| t[0] as f64 + t[1] as f64 / 1e6;
        tv(u.utime) + tv(u.stime)
    };
    let process = secs(rusage(ffi::RUSAGE_SELF)?);
    let thread = secs(rusage(ffi::RUSAGE_THREAD)?);
    Ok(process - thread)
}

/// Sets the calling thread's timer slack to `ns`, so that its sleeps
/// end within microseconds of their deadline instead of the default
/// 50 µs slack. Affects only the calling thread.
#[cfg(target_os = "linux")]
pub fn set_timer_slack_ns(ns: u64) -> std::io::Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches no memory of ours; prctl is variadic and is declared so.
    let rc = unsafe { ffi::prctl(ffi::PR_SET_TIMERSLACK, ffi::slack_arg(ns)) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mib() -> std::io::Result<f64> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "peak RSS is read with getrusage on Linux only",
    ))
}

#[cfg(not(target_os = "linux"))]
pub fn cpu_seconds_of_other_threads() -> std::io::Result<f64> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "CPU time is read with getrusage on Linux only",
    ))
}

#[cfg(not(target_os = "linux"))]
pub fn set_timer_slack_ns(_ns: u64) -> std::io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_is_positive() {
        let mib = super::peak_rss_mib().unwrap();
        assert!(mib > 0.5 && mib < 1e6, "{mib}");
    }

    #[test]
    fn other_threads_cpu_counts_a_busy_helper_only() {
        let before = super::cpu_seconds_of_other_threads().unwrap();
        // Busy on this thread: not counted.
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(100) {
            std::hint::black_box(0u64);
        }
        let mid = super::cpu_seconds_of_other_threads().unwrap();
        // Busy on a helper thread: counted.
        std::thread::spawn(|| {
            let t = std::time::Instant::now();
            while t.elapsed() < std::time::Duration::from_millis(100) {
                std::hint::black_box(0u64);
            }
        })
        .join()
        .unwrap();
        let after = super::cpu_seconds_of_other_threads().unwrap();
        assert!(mid - before < 0.05, "own thread leaked: {}", mid - before);
        assert!(after - mid > 0.05, "helper not counted: {}", after - mid);
    }
}

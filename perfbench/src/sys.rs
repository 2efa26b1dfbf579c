//! Process counters read from the kernel: CPU time and context switches
//! through `getrusage(2)`, peak resident memory from `/proc`.
//!
//! Linux on a 64-bit target only, like the rest of the benchmark.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// (`ru_maxrss` … `ru_nivcsw`).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
/// Index of `ru_nvcsw` in [`RUsage::longs`]; `ru_nivcsw` follows it.
const NVCSW: usize = 12;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// CPU time and context switches of a process (or of its waited-for
/// children), summed over every thread including exited ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
}

impl Usage {
    /// This process so far.
    pub fn this_process() -> Self {
        read(RUSAGE_SELF)
    }

    /// Every child this process has waited for so far.
    pub fn children() -> Self {
        read(RUSAGE_CHILDREN)
    }

    /// The usage accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

fn read(who: i32) -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `who` is one of the two values the call accepts;
    // getrusage writes only inside the struct.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage cannot fail for RUSAGE_SELF/CHILDREN");
    let secs = |t: &Timeval| Duration::new(t.sec as u64, (t.usec * 1000) as u32).as_secs_f64();
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        ctx_switches: (ru.longs[NVCSW] + ru.longs[NVCSW + 1]) as u64,
    }
}

/// Peak resident set size (`VmHWM`) in MiB of `pid`, or of this process
/// when `pid` is `None`.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

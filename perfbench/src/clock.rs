//! Time on the `hs_obs` process clock, the repository's sanctioned
//! wall-clock source (`hs-lint` rejects raw `Instant::now` elsewhere).
//! Timestamps are nanoseconds since the process anchor, the same timeline
//! the trace records use.

use std::time::Duration;

pub fn now() -> u64 {
    hs_obs::now_ns()
}

pub fn secs_since(t: u64) -> f64 {
    now().saturating_sub(t) as f64 / 1e9
}

pub fn ms_since(t: u64) -> f64 {
    now().saturating_sub(t) as f64 / 1e6
}

/// Sleeps until `t`, or returns at once if `t` has passed.
pub fn sleep_until(t: u64) {
    let n = now();
    if t > n {
        std::thread::sleep(Duration::from_nanos(t - n));
    }
}

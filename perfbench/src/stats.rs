//! Order statistics and process counters.

use std::time::{Duration, Instant};

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Microseconds per call of `f`, as the median of `rounds` rounds that
/// each repeat `f` until at least `min_round` has passed. Sub-microsecond
/// codec calls need the repetition; the median drops rounds a scheduler
/// hiccup landed in.
pub fn time_us<F: FnMut()>(rounds: usize, min_round: Duration, mut f: F) -> f64 {
    let mut per_call = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        let mut n = 0u32;
        while n == 0 || start.elapsed() < min_round {
            f();
            n += 1;
        }
        per_call.push(start.elapsed().as_secs_f64() * 1e6 / f64::from(n));
    }
    median(&per_call)
}

/// Process user+system CPU time so far, in milliseconds, summed over all
/// threads (`/proc/self/stat` fields 14 and 15, in clock ticks of
/// 1/100 s, the Linux `USER_HZ`).
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting at field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i - 3).and_then(|s| s.parse::<f64>().ok());
    match (ticks(14), ticks(15)) {
        (Some(u), Some(s)) => (u + s) * 10.0,
        _ => f64::NAN,
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn process_counters_read_on_linux() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}

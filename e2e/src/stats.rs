//! Sample summaries and the host facts printed beside every result.

use crate::json::Json;

/// The `q`-quantile (`0.0..=1.0`) of `sorted`, interpolating linearly between
/// the two closest ranks; `None` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// A sample reduced to what the benchmark prints.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The highest of p99 / p95 / p90 that still has ten samples beyond it
    /// (0 when even p90 does not).
    pub tail: f64,
    pub tail_pct: f64,
}

pub fn summarize(mut xs: Vec<f64>) -> Summary {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let tail_pct = [99, 95, 90].into_iter().find(|p| n * (100 - p) >= 10 * 100);
    Summary {
        n,
        p50: quantile(&xs, 0.5).unwrap_or(0.0),
        tail: tail_pct
            .and_then(|p| quantile(&xs, p as f64 / 100.0))
            .unwrap_or(0.0),
        tail_pct: tail_pct.map_or(0.0, |p| p as f64),
    }
}

pub fn median(xs: Vec<f64>) -> f64 {
    summarize(xs).p50
}

/// Operations timed inside a window: when each completed, in seconds from the
/// window's start, and how long it took.
#[derive(Default)]
pub struct Timeline {
    pub done_at_s: Vec<f64>,
    pub ms: Vec<f64>,
}

/// A timeline reduced slice by slice. The sandbox's neighbours come and go
/// over seconds; the median over slices of two seconds ignores a burst that
/// the pooled median would follow.
pub struct Steady {
    /// Median over slices of each slice's median latency.
    pub p50_ms: f64,
    /// Median over slices of operations completed per second.
    pub per_s: f64,
    /// Each slice's median latency, in order: how steady the box was.
    pub slice_p50_ms: Vec<f64>,
}

impl Timeline {
    pub fn push(&mut self, done_at_s: f64, ms: f64) {
        self.done_at_s.push(done_at_s);
        self.ms.push(ms);
    }

    pub fn steady(&self, window_s: f64) -> Steady {
        let slices = ((window_s / 2.0) as usize).clamp(1, 10);
        let width = window_s / slices as f64;
        let mut by_slice: Vec<Vec<(f64, f64)>> = vec![Vec::new(); slices];
        for (at, ms) in self.done_at_s.iter().zip(&self.ms) {
            // The last operation may end just past the window.
            by_slice[((at / width) as usize).min(slices - 1)].push((*at, *ms));
        }
        // A slice's rate is taken over the operations that ended in it, from
        // the start of the first to the end of the last: counting per fixed
        // two seconds would round long operations to whole numbers.
        let rate = |ops: &Vec<(f64, f64)>| match (ops.first(), ops.last()) {
            (Some((first_done, first_ms)), Some((last_done, _))) => {
                ops.len() as f64 / (last_done - (first_done - first_ms / 1e3))
            }
            _ => 0.0,
        };
        let rates = by_slice.iter().map(rate).collect();
        let slice_p50_ms: Vec<f64> = by_slice
            .into_iter()
            .filter(|ops| !ops.is_empty())
            .map(|ops| median(ops.into_iter().map(|(_, ms)| ms).collect()))
            .collect();
        Steady {
            p50_ms: median(slice_p50_ms.clone()),
            per_s: median(rates),
            slice_p50_ms,
        }
    }
}

/// `VmHWM` of this process in MB: its peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores and load average, so a reader can tell a noisy box from a slow
/// program.
pub fn host() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(-1.0);
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        ("loadavg_1m", Json::Num(load1)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_edges() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0], 0.0), Some(3.0));
        assert_eq!(quantile(&[3.0], 0.99), Some(3.0));
        assert_eq!(quantile(&[1.0, 3.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0, 10.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0, 10.0], 1.0), Some(10.0));
        assert_eq!(quantile(&[1.0, 2.0, 10.0], 7.0), Some(10.0));
        assert_eq!(quantile(&[0.0, 10.0], 0.25), Some(2.5));
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        let s = summarize((0..50).map(f64::from).collect());
        assert_eq!((s.n, s.tail_pct, s.tail), (50, 0.0, 0.0));
        let s = summarize((0..100).map(f64::from).collect());
        assert_eq!(s.tail_pct, 90.0);
        let s = summarize((0..1000).map(f64::from).collect());
        assert_eq!(s.tail_pct, 99.0);
        assert!((s.p50 - 499.5).abs() < 1e-9);
        assert_eq!(summarize(Vec::new()).p50, 0.0);
    }

    #[test]
    fn a_burst_in_one_slice_does_not_move_the_steady_figures() {
        let mut t = Timeline::default();
        // 20 s of back-to-back operations of 100 ms each; the third slice is
        // hit by a neighbour: half as many operations, twice as slow.
        for i in 1..=200 {
            let at = i as f64 / 10.0;
            if (4.0..6.0).contains(&at) {
                if i % 2 == 0 {
                    t.push(at, 200.0);
                }
            } else {
                t.push(at, 100.0);
            }
        }
        let s = t.steady(20.0);
        assert_eq!((s.slice_p50_ms.len(), s.p50_ms), (10, 100.0));
        assert!((s.per_s - 10.0).abs() < 1e-9, "{}", s.per_s);
        assert_eq!(s.slice_p50_ms[2], 200.0);
        // A window too short to slice is one slice; one with no operations
        // reports zeros.
        assert_eq!(t.steady(1.5).slice_p50_ms.len(), 1);
        let empty = Timeline::default().steady(20.0);
        assert_eq!((empty.p50_ms, empty.per_s), (0.0, 0.0));
        // An operation ending past the window lands in the last slice.
        let mut late = Timeline::default();
        late.push(1.0, 1000.0);
        late.push(4.2, 3200.0);
        let s = late.steady(4.0);
        assert_eq!(s.slice_p50_ms, [1000.0, 3200.0]);
        assert!((s.per_s - (1.0 + 1.0 / 3.2) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_mb() > 0.0);
    }
}

//! Exact latency recorder: every sample is kept as nanoseconds, sorted
//! once at the end, and quantiles are read off the sorted vector. No
//! buckets — `bench::replay::LatencyHistogram` resolves a quantile only
//! to a factor of two, which cannot repeat within a tenth.

use std::time::Duration;

/// What a timed wire operation is counted as. One class per end-to-end
/// latency metric, so a metric's samples are exactly one vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// `POST /sessions` (theme detection, or its cache hit).
    Open,
    /// `select_theme` / `project_theme` / `map`.
    Map,
    /// `zoom`.
    Zoom,
    /// `highlight` / `scatter` / `region_detail`: they read the rows of
    /// the map's regions.
    Scan,
    /// `themes` / `sql` / `depth` / `breadcrumbs` / `rollback`: answered
    /// from session state.
    Nav,
    /// `map_progressive` submit → the level-0 line.
    FirstMap,
    /// `map_progressive` submit → the `"final":true` line.
    LadderExact,
    /// One scripted session, open → close.
    Session,
}

impl Class {
    pub const ALL: [Class; 8] = [
        Class::Open,
        Class::Map,
        Class::Zoom,
        Class::Scan,
        Class::Nav,
        Class::FirstMap,
        Class::LadderExact,
        Class::Session,
    ];

    fn slot(self) -> usize {
        self as usize
    }
}

/// Per-class sample vectors. One recorder per client thread; merged
/// after the threads join, so recording never takes a lock.
///
/// Two populations per class: every command's latency (for tails), and
/// per session the *mean* latency of the class's commands. The reported
/// p50 is the median over sessions of that mean: a class mixes commands
/// of different cost (a highlight on 200 000 rows, a scatter on a zoomed
/// half), so the median *command* sits between clusters and flips from
/// run to run, while every session holds the same mixture.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    commands: [Vec<u64>; 8],
    sessions: [Vec<u64>; 8],
    /// `(sum, count)` per class of the session in progress.
    open: [(u64, u64); 8],
}

impl Recorder {
    pub fn record(&mut self, class: Class, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.commands[class.slot()].push(nanos);
        let (sum, count) = &mut self.open[class.slot()];
        *sum += nanos;
        *count += 1;
    }

    /// Closes the session in progress: one per-session mean per class it
    /// exercised.
    pub fn end_session(&mut self) {
        for (means, (sum, count)) in self.sessions.iter_mut().zip(&mut self.open) {
            means.extend(sum.checked_div(*count));
            (*sum, *count) = (0, 0);
        }
    }

    /// Drops the sums of a session that did not finish, so they do not
    /// leak into the next session's means. Its commands stay counted.
    pub fn abort_session(&mut self) {
        self.open = Default::default();
    }

    pub fn merge(&mut self, other: Recorder) {
        for (mine, theirs) in self.commands.iter_mut().zip(other.commands) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.sessions.iter_mut().zip(other.sessions) {
            mine.extend(theirs);
        }
    }

    /// Every command of the class, sorted (the "sorted once at the end"
    /// step).
    pub fn commands(&self, class: Class) -> Sorted {
        Sorted::new(self.commands[class.slot()].clone())
    }

    /// Per-session means of the class, sorted.
    pub fn sessions(&self, class: Class) -> Sorted {
        Sorted::new(self.sessions[class.slot()].clone())
    }
}

/// A sorted sample vector.
#[derive(Debug, Clone)]
pub struct Sorted(Vec<u64>);

impl Sorted {
    pub fn new(mut nanos: Vec<u64>) -> Sorted {
        nanos.sort_unstable();
        Sorted(nanos)
    }

    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile in nanoseconds, linearly interpolated between the
    /// two closest ranks (position `q·(n−1)`); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let last = self.0.len().checked_sub(1)?;
        let pos = q.clamp(0.0, 1.0) * last as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(last);
        let frac = pos - lo as f64;
        Some(self.0[lo] as f64 * (1.0 - frac) + self.0[hi] as f64 * frac)
    }

    /// The `q`-quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.quantile(q).map(|ns| ns / 1e6)
    }

    /// A tail quantile is reported only when at least ten samples lie
    /// beyond it; otherwise `None` (the percentile is not resolved by
    /// this many samples).
    pub fn tail_ms(&self, q: f64) -> Option<f64> {
        (samples_beyond(self.0.len(), q) >= 10)
            .then(|| self.quantile_ms(q))
            .flatten()
    }
}

/// How many of `n` samples rank strictly above the `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest of p90 / p99 / p99.9 that `n` samples resolve with at
/// least ten samples beyond it.
pub fn highest_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// Median of plain values (set-up repetitions, stage timings).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    Some((sorted[last / 2] + sorted[last.div_ceil(2)]) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_vectors() {
        let s = Sorted::new((1..=101).map(|v| v * 1_000_000).collect());
        assert_eq!(s.n(), 101);
        assert_eq!(s.quantile_ms(0.0), Some(1.0));
        assert_eq!(s.quantile_ms(0.5), Some(51.0));
        assert_eq!(s.quantile_ms(0.9), Some(91.0));
        assert_eq!(s.quantile_ms(1.0), Some(101.0));
        // Interpolation between ranks: 4 samples, median between 2nd and 3rd.
        let s = Sorted::new(vec![40, 10, 30, 20]);
        assert_eq!(s.quantile(0.5), Some(25.0));
        assert_eq!(Sorted::new(Vec::new()).quantile(0.5), None);
        assert_eq!(Sorted::new(vec![7]).quantile(0.99), Some(7.0));
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(highest_tail(99), None);
        assert_eq!(highest_tail(100), Some(0.9));
        assert_eq!(highest_tail(999), Some(0.9));
        assert_eq!(highest_tail(1000), Some(0.99));
        assert_eq!(highest_tail(10_000), Some(0.999));
        let s = Sorted::new((0..99).collect());
        assert_eq!(s.tail_ms(0.9), None);
        let s = Sorted::new((0..100).collect());
        assert!(s.tail_ms(0.9).is_some());
        assert_eq!(s.tail_ms(0.99), None);
    }

    #[test]
    fn recorder_keeps_commands_and_session_means() {
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        // One session on `a`: two scans of 2 ms and 6 ms, mean 4 ms.
        a.record(Class::Scan, Duration::from_millis(2));
        a.record(Class::Scan, Duration::from_millis(6));
        a.end_session();
        // Two sessions on `b`.
        b.record(Class::Scan, Duration::from_millis(1));
        b.record(Class::Nav, Duration::from_micros(5));
        b.end_session();
        b.record(Class::Scan, Duration::from_millis(10));
        b.end_session();
        // An aborted session leaves no mean and nothing for the next one.
        b.record(Class::Zoom, Duration::from_millis(3));
        b.abort_session();
        b.end_session();
        a.merge(b);
        assert_eq!(a.sessions(Class::Zoom).n(), 0);
        assert_eq!(a.commands(Class::Scan).n(), 4);
        assert_eq!(a.commands(Class::Scan).quantile_ms(0.0), Some(1.0));
        assert_eq!(a.sessions(Class::Scan).n(), 3);
        assert_eq!(a.sessions(Class::Scan).quantile_ms(0.5), Some(4.0));
        assert_eq!(a.sessions(Class::Nav).n(), 1);
        assert_eq!(a.commands(Class::Zoom).n(), 1);
        assert_eq!(a.sessions(Class::Zoom).quantile_ms(0.5), None);
    }

    #[test]
    fn median_of_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}

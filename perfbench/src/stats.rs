//! Percentiles, windowed medians, the benchmark's own span recorder and
//! process memory.

use crate::gen::Rng;
use std::io::Write;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an unsorted sample (`q` in 0..=1).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    percentile(&mut xs, 0.5)
}

/// Length of one measurement window. A run is cut into windows and each
/// figure is the median over windows of that window's value, so a short
/// stall of the host shifts one window, not the reported figure.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Latencies kept per window. Beyond this many ops in one window the
/// window keeps a uniform random sample of this size (reservoir
/// sampling), so the recorder's memory does not grow with throughput.
const KEPT_PER_WINDOW: usize = 8192;

/// Per-window op counts and latencies, in memory of a fixed size that is
/// allocated and written before the first set-up. Its share of
/// `peak_rss_mb` is then the same whatever the program's throughput.
#[derive(Debug)]
pub struct Recorder {
    counts: Vec<u64>,
    /// `KEPT_PER_WINDOW` latencies (µs) per window, window after window.
    kept: Vec<f64>,
    /// Host CPU ticks read when the window's first op ended.
    cpu: Vec<Option<(u64, u64)>>,
    /// Windows before this one have had their ticks read.
    next_read: usize,
    rng: Rng,
}

impl Recorder {
    /// Room for a phase of up to `phase`, plus one window for the ops
    /// that end after the deadline.
    pub fn new(phase: Duration) -> Recorder {
        let windows = (phase.as_secs_f64() / WINDOW.as_secs_f64()).ceil() as usize + 1;
        Recorder {
            counts: vec![0; windows],
            // Not zero: a zeroed allocation would not be resident yet.
            kept: vec![-1.0; windows * KEPT_PER_WINDOW],
            cpu: vec![None; windows],
            next_read: 0,
            rng: Rng::new(0, 0),
        }
    }

    /// Forget every op, for the next phase.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.cpu.fill(None);
        self.next_read = 0;
    }

    /// Note an op that ended `end` after the phase began.
    pub fn record(&mut self, end: Duration, latency: Duration) {
        let w = ((end.as_secs_f64() / WINDOW.as_secs_f64()) as usize).min(self.counts.len() - 1);
        if w >= self.next_read {
            self.cpu[w] = host_cpu_ticks();
            self.next_read = w + 1;
        }
        let n = self.counts[w];
        self.counts[w] += 1;
        let slot = if (n as usize) < KEPT_PER_WINDOW {
            n as usize
        } else {
            match self.rng.below(n + 1) as usize {
                j if j < KEPT_PER_WINDOW => j,
                _ => return,
            }
        };
        self.kept[w * KEPT_PER_WINDOW + slot] = latency.as_secs_f64() * 1e6;
    }

    /// Ops recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn latencies(&self, w: usize) -> &[f64] {
        let n = (self.counts[w] as usize).min(KEPT_PER_WINDOW);
        &self.kept[w * KEPT_PER_WINDOW..][..n]
    }
}

/// End-to-end figures of one timed phase.
#[derive(Debug, Clone)]
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub ops: u64,
    /// Per-window throughput, p99 and host CPU steal (%, when known), in
    /// window order.
    pub window_rates: Vec<f64>,
    pub window_p99s: Vec<f64>,
    pub window_steal: Vec<Option<f64>>,
    /// Windows left out of the medians for their steal.
    pub stolen_windows: usize,
}

/// Host CPU steal (%) a window may have and still count in the medians.
/// Steal is time the hypervisor ran other guests while this one was
/// ready to run; on a 2-vCPU VM each 1% of it cost `bag_of_tasks` about
/// 2–3% of its throughput, so a window with more measures the host's
/// other guests as much as the program. Within a window of 2 vCPUs a
/// tick of steal is 0.5%.
const STEAL_MAX_PCT: f64 = 2.0;

/// Fewest periods (windows, or batches of set-ups) under
/// `STEAL_MAX_PCT` a run needs for the limit to hold; with fewer, see
/// [`steal_limit`].
const MIN_CLEAN_WINDOWS: usize = 3;

/// Windows `elapsed` is cut into. A trailing partial window shorter than
/// half a window is folded into the one before it.
fn window_count(rec: &Recorder, elapsed: Duration) -> usize {
    let full = (elapsed.as_secs_f64() / WINDOW.as_secs_f64() + 0.5).floor() as usize;
    full.clamp(1, rec.counts.len())
}

/// Host CPU steal (%) of each window of a phase, `None` where unknown.
pub fn window_steal(rec: &Recorder, elapsed: Duration) -> Vec<Option<f64>> {
    (0..window_count(rec, elapsed))
        .map(|w| steal_pct(rec.cpu[w], *rec.cpu.get(w + 1)?))
        .collect()
}

/// The steal limit for a run whose periods had `steal`:
/// `STEAL_MAX_PCT` when at least `MIN_CLEAN_WINDOWS` stayed under it.
/// Otherwise the host was disturbed nearly all run, and the limit is the
/// median period's steal, so the cleaner half of the periods counts.
pub fn steal_limit(steal: &[Option<f64>]) -> f64 {
    let known: Vec<f64> = steal.iter().flatten().copied().collect();
    let clean = known.iter().filter(|&&pct| pct <= STEAL_MAX_PCT).count();
    if known.is_empty() || clean >= MIN_CLEAN_WINDOWS {
        STEAL_MAX_PCT
    } else {
        STEAL_MAX_PCT.max(median(known))
    }
}

/// Windowed medians of throughput and latency percentiles over
/// `elapsed`, over the windows whose host CPU steal is within
/// `steal_limit`.
pub fn summarize(rec: &Recorder, elapsed: Duration, steal_limit: f64) -> Summary {
    let windows = window_count(rec, elapsed);
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut counts = vec![0u64; windows];
    for w in 0..rec.counts.len() {
        let into = w.min(windows - 1);
        per[into].extend_from_slice(rec.latencies(w));
        counts[into] += rec.counts[w];
    }
    let span = |w: usize| {
        if w + 1 == windows {
            elapsed.as_secs_f64() - WINDOW.as_secs_f64() * w as f64
        } else {
            WINDOW.as_secs_f64()
        }
    };
    let steal = window_steal(rec, elapsed);
    let mut rates = Vec::new();
    let (mut p50s, mut p90s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut all_rates, mut all_p99s) = (Vec::new(), Vec::new());
    let mut stolen_windows = 0;
    for (w, lat) in per.iter_mut().enumerate() {
        let rate = counts[w] as f64 / span(w);
        all_rates.push(rate);
        let pcts = (!lat.is_empty()).then(|| {
            (
                percentile(lat, 0.50),
                percentile(lat, 0.90),
                percentile(lat, 0.99),
            )
        });
        all_p99s.extend(pcts.map(|p| p.2));
        if steal[w].is_some_and(|pct| pct > steal_limit) {
            stolen_windows += 1;
            continue;
        }
        rates.push(rate);
        if let Some((p50, p90, p99)) = pcts {
            p50s.push(p50);
            p90s.push(p90);
            p99s.push(p99);
        }
    }
    let mid = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            median(xs.to_vec())
        }
    };
    Summary {
        ops_per_s: mid(&rates),
        p50_us: mid(&p50s),
        p90_us: mid(&p90s),
        p99_us: mid(&p99s),
        ops: rec.total(),
        window_rates: all_rates,
        window_p99s: all_p99s,
        window_steal: steal,
        stolen_windows,
    }
}

/// Figures of a run made of segments, each on a fresh cluster: the mean
/// of each segment's windowed medians, over the segments with a window
/// left in. Within a segment the median ignores a stalled window; across
/// segments the mean averages over the latency modes clusters settle
/// into, where a median would jump from one mode to another.
pub fn combine(segs: &[Summary]) -> Summary {
    let counted: Vec<&Summary> = segs
        .iter()
        .filter(|s| s.window_rates.len() > s.stolen_windows)
        .collect();
    let mean = |f: fn(&Summary) -> f64| {
        counted.iter().map(|s| f(s)).sum::<f64>() / counted.len().max(1) as f64
    };
    Summary {
        ops_per_s: mean(|s| s.ops_per_s),
        p50_us: mean(|s| s.p50_us),
        p90_us: mean(|s| s.p90_us),
        p99_us: mean(|s| s.p99_us),
        ops: segs.iter().map(|s| s.ops).sum(),
        window_rates: segs.iter().flat_map(|s| s.window_rates.clone()).collect(),
        window_p99s: segs.iter().flat_map(|s| s.window_p99s.clone()).collect(),
        window_steal: segs.iter().flat_map(|s| s.window_steal.clone()).collect(),
        stolen_windows: segs.iter().map(|s| s.stolen_windows).sum(),
    }
}

/// p50 and p99 (µs) of a list of durations; zeros when it is empty (a
/// phase whose every op failed, which the run reports as failed).
pub fn p50_p99_us(durations: &[Duration]) -> (f64, f64) {
    if durations.is_empty() {
        return (0.0, 0.0);
    }
    let mut us: Vec<f64> = durations.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    (percentile(&mut us, 0.50), percentile(&mut us, 0.99))
}

/// One span the benchmark records around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the causing span in the same [`SpanLog`].
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// In-memory span buffer, one per client thread; merged and written out
/// once the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Time `f` as a span named `name` and return its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        out
    }

    /// Open a span whose end is set later with [`SpanLog::close`]; its
    /// index is the parent its children name.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: None,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.epoch.elapsed();
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Append another log's spans, keeping their parent links and
    /// moving their times onto this log's epoch.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start += shift;
            s.end += shift;
            s
        }));
    }

    /// Write one tab-separated line per span: id, parent (`-` for a
    /// root), op, name, start and end in ns since the run began.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Host CPU ticks `(stolen, total)` from `/proc/stat`. Time the
/// hypervisor gave to other guests shows up as steal; a run with a high
/// steal share was disturbed from outside and is not comparable.
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Share of host CPU time stolen between two [`host_cpu_ticks`] readings,
/// in percent.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.99), 99.0);
        assert_eq!(percentile(&mut xs, 1.0), 100.0);
    }

    #[test]
    fn summary_takes_medians_over_windows() {
        // Three one-second windows at 10 ops/s, 100 µs each, except the
        // middle window, which stalls: its p50 must not reach the result.
        let mut rec = Recorder::new(Duration::from_secs(3));
        for w in 0..3u64 {
            for i in 0..10u64 {
                let lat = if w == 1 { 5_000 } else { 100 };
                rec.record(
                    Duration::from_millis(w * 1000 + i * 100 + 50),
                    Duration::from_micros(lat),
                );
            }
        }
        let s = summarize(&rec, Duration::from_secs(3), STEAL_MAX_PCT);
        assert_eq!(s.window_rates.len(), 3);
        assert_eq!(s.ops, 30);
        assert!((s.ops_per_s - 10.0).abs() < 1e-9);
        assert!((s.p50_us - 100.0).abs() < 1e-9);

        // A second segment at 20 ops/s and 300 µs: the run's figures are
        // the segment means.
        let mut rec = Recorder::new(Duration::from_secs(1));
        for i in 0..20u64 {
            rec.record(Duration::from_millis(i * 50), Duration::from_micros(300));
        }
        let two = combine(&[s, summarize(&rec, Duration::from_secs(1), STEAL_MAX_PCT)]);
        assert_eq!(two.ops, 50);
        assert!((two.ops_per_s - 15.0).abs() < 1e-9);
        assert!((two.p50_us - 200.0).abs() < 1e-9);
    }

    #[test]
    fn windows_with_steal_above_the_limit_are_left_out() {
        // Ten windows at 10 ops/s; windows 0-3 had 10% steal and ran at
        // 500 µs, the rest had none and ran at 100 µs.
        let mut rec = Recorder::new(Duration::from_secs(10));
        for w in 0..10u64 {
            for i in 0..10u64 {
                let lat = if w < 4 { 500 } else { 100 };
                rec.record(
                    Duration::from_millis(w * 1000 + i * 100 + 50),
                    Duration::from_micros(lat),
                );
            }
        }
        for w in 0..=10usize {
            let stolen = if w <= 4 { 10 * w as u64 } else { 40 };
            rec.cpu[w] = Some((stolen, 100 * w as u64));
        }
        let elapsed = Duration::from_secs(10);
        let steal = window_steal(&rec, elapsed);
        assert_eq!(steal_limit(&steal), STEAL_MAX_PCT);
        let s = summarize(&rec, elapsed, steal_limit(&steal));
        assert_eq!(s.stolen_windows, 4);
        assert!((s.p50_us - 100.0).abs() < 1e-9);
        assert_eq!(s.window_rates.len(), 10);

        // With fewer than MIN_CLEAN_WINDOWS clean windows the limit is
        // the median window's steal.
        let mostly_stolen = [Some(10.0), Some(20.0), Some(30.0), Some(0.0), None];
        assert_eq!(steal_limit(&mostly_stolen), 10.0);
    }

    #[test]
    fn a_full_window_keeps_a_sample_and_counts_every_op() {
        let mut rec = Recorder::new(Duration::from_secs(1));
        let n = 3 * KEPT_PER_WINDOW as u64;
        for i in 0..n {
            rec.record(
                Duration::from_micros(i * 10),
                Duration::from_micros(i % 100 + 1),
            );
        }
        let s = summarize(&rec, Duration::from_secs(1), STEAL_MAX_PCT);
        assert_eq!(s.ops, n);
        assert!((s.ops_per_s - n as f64).abs() < 1e-9);
        // Latencies 1..=100 µs, evenly: the sample's median is near 50.
        assert!((45.0..=56.0).contains(&s.p50_us), "p50 {}", s.p50_us);
        rec.clear();
        assert_eq!(rec.total(), 0);
    }
}

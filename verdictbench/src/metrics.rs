//! Order statistics, CPU time, and the result line.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The machine-wide CPU time counters of `/proc/stat` (user, nice,
/// system, idle, iowait, irq, softirq, steal, ...), in clock ticks.
pub fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// One reading of the CPU counters a phase is measured by.
#[derive(Debug, Clone, Copy)]
struct CpuSample {
    /// Since the phase started, ns.
    at_ns: u64,
    /// [`process_cpu_s`].
    process_s: f64,
    /// Machine CPU ticks the hypervisor stole.
    stolen: u64,
    /// All machine CPU ticks.
    total: u64,
    /// [`peak_rss_mb`].
    peak_rss_mb: f64,
}

/// The process's CPU time and peak memory and the machine's stolen time,
/// sampled through a phase, so that the benchmark can tell how much CPU
/// time any stretch of it took and how much memory it had used by then.
#[derive(Debug, Default)]
pub struct CpuLog {
    samples: Vec<CpuSample>,
}

impl CpuLog {
    /// CPU time the process had used `at_ns` after the phase started, s,
    /// interpolated between the readings around it (the first or last
    /// reading outside them).
    fn process_at(&self, at_ns: u64) -> f64 {
        let after = self.samples.partition_point(|s| s.at_ns < at_ns);
        match (
            self.samples.get(after.wrapping_sub(1)),
            self.samples.get(after),
        ) {
            (Some(a), Some(b)) if b.at_ns > a.at_ns => {
                let f = (at_ns - a.at_ns) as f64 / (b.at_ns - a.at_ns) as f64;
                a.process_s + f * (b.process_s - a.process_s)
            }
            (_, Some(s)) | (Some(s), None) => s.process_s,
            (None, None) => 0.0,
        }
    }

    /// CPU time the process used between `from_ns` and `to_ns` after the
    /// phase started, s.
    pub fn process_s(&self, from_ns: u64, to_ns: u64) -> f64 {
        self.process_at(to_ns) - self.process_at(from_ns)
    }

    /// The process's peak resident set by the first reading at or after
    /// `at_ns` (the last reading when none is), MB.
    pub fn peak_rss_mb_at(&self, at_ns: u64) -> f64 {
        self.samples
            .iter()
            .find(|s| s.at_ns >= at_ns)
            .or(self.samples.last())
            .map_or(0.0, |s| s.peak_rss_mb)
    }

    /// Share of the machine's CPU time the hypervisor stole over the phase.
    pub fn stolen_share(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) if b.total > a.total => {
                b.stolen.saturating_sub(a.stolen) as f64 / (b.total - a.total) as f64
            }
            _ => 0.0,
        }
    }
}

/// Runs `f` while a thread reads the counters every 20 ms, timed from
/// `start`.
pub fn with_cpu_log<T>(start: Instant, f: impl FnOnce() -> T) -> (T, CpuLog) {
    let stop = AtomicBool::new(false);
    let (value, samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            loop {
                let machine = cpu_ticks();
                samples.push(CpuSample {
                    at_ns: elapsed_ns(start),
                    process_s: process_cpu_s(),
                    stolen: machine.get(7).copied().unwrap_or(0),
                    total: machine.iter().sum(),
                    peak_rss_mb: peak_rss_mb(),
                });
                if stop.load(Ordering::Relaxed) {
                    return samples;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let value = f();
        stop.store(true, Ordering::Relaxed);
        (value, sampler.join().expect("the CPU sampler panicked"))
    });
    (value, CpuLog { samples })
}

/// Clock ticks per second of the CPU times in `/proc/self/stat`
/// (`USER_HZ`, 100 on every Linux target).
const USER_HZ: f64 = 100.0;

/// CPU time this process has used, user plus system, over all its threads
/// (exited ones included), s. Time the hypervisor stole from the machine is
/// not in it: the kernel accounts that as steal, not to the task.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces;
    // utime and stime are the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    ticks as f64 / USER_HZ
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank quantile `q` of `values` (unsorted); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints a human-readable table, then the result as one line of JSON,
/// always the last line of stdout, for whatever runs the benchmark to read.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<34} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_log_stretches() {
        let sample = |at_ns, process_s, stolen, total| CpuSample {
            at_ns,
            process_s,
            stolen,
            total,
            peak_rss_mb: process_s * 10.0,
        };
        let log = CpuLog {
            samples: vec![
                sample(0, 1.0, 0, 0),
                sample(10, 1.5, 1, 10),
                sample(20, 3.0, 6, 20),
            ],
        };
        assert_eq!(log.stolen_share(), 0.3);
        assert_eq!(log.process_s(0, 10), 0.5);
        assert_eq!(log.process_s(5, 15), 1.0);
        assert_eq!(log.process_s(0, u64::MAX), 2.0);
        assert_eq!(log.peak_rss_mb_at(5), 15.0);
        assert_eq!(log.peak_rss_mb_at(25), 30.0);
        assert_eq!(CpuLog::default().process_s(0, 10), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}

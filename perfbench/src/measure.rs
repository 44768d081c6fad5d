//! Host-side measurement helpers: process CPU time and peak memory from
//! `/proc`, in-memory spans, order statistics, and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// User + system CPU time of this process so far, in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric stat field") };
    // `rest` starts at field 3, so field n sits at index n - 3.
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SECOND
}

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux target in practice.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Nearest-rank quantile of `v` (sorted in place); 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v` (sorted in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// One recorded call: which layer function, when, under which parent
/// span, and for which cell or request.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub item: u64,
}

/// In-memory span recorder. Spans are pushed when they close, so a
/// parent is reserved (`open`) before its children run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that will have children; close it with
    /// [`Spans::close`].
    pub fn open(&mut self, name: &'static str, item: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            item,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a child of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let item = self.spans[parent].item;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            item,
        });
        out
    }

    /// Self time per span name in ns: each span's duration minus the
    /// part its children cover, with the number of spans of that name.
    pub fn self_time(&self) -> std::collections::BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::collections::BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_insert((0u64, 0u64));
            e.0 += (s.end_ns - s.start_ns).saturating_sub(*c);
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one NDJSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"item\": {}}}",
                s.name, s.start_ns, s.end_ns, s.item
            )
            .expect("write to String");
        }
        std::fs::write(path, text)
    }
}

/// Named metrics in print order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Prints one human-readable line per metric.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for (name, value, unit) in &self.0 {
            println!("  {name:<36} {value:>18.6} {unit}");
        }
    }

    /// The result line `run.py` reads: every metric, by name and unit.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (`{:?}` prints the shortest
/// representation that round-trips).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.9), 5.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        let p = s.open("parent", 7, None);
        s.time("child", p, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.close(p);
        let t = s.self_time();
        assert!(t["child"].0 >= 2_000_000);
        assert!(t["parent"].0 < t["child"].0);
        assert_eq!(s.spans[1].item, 7);
    }
}

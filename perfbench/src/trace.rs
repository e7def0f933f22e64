//! In-memory spans recorded from the benchmark's own side of each public
//! call: the benchmark opens a span around every call it makes into the
//! workspace (`fleet_sim`, `NodeSim::step`, `serve_native`, ...), and the
//! [`crate::job::CheckedJob`] wrapper records one span per `Workload` call
//! the program makes back into it, parented to the open call span.

use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Benchmark job id the call served, if it served one.
    pub job: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    current: Option<usize>,
}

/// A span log shared by the benchmark and every wrapped job of one pass.
pub struct Tracer {
    origin: Instant,
    log: Mutex<Log>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            log: Mutex::new(Log::default()),
        }
    }
}

impl Tracer {
    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        // Every update leaves the log valid, so a poisoned lock is usable.
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a call span that parents every span recorded
    /// while it runs.
    pub fn scope<R>(&self, name: &'static str, job: Option<u64>, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut log = self.log();
            let parent = log.current;
            let start_ns = self.now_ns();
            log.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                job,
            });
            let idx = log.spans.len() - 1;
            log.current = Some(idx);
            idx
        };
        let r = f();
        let end = self.now_ns();
        let mut log = self.log();
        log.spans[idx].end_ns = end;
        log.current = log.spans[idx].parent;
        r
    }

    /// Records a finished call under the currently open call span.
    pub fn record(&self, name: &'static str, job: Option<u64>, start_ns: u64, end_ns: u64) {
        let mut log = self.log();
        let parent = log.current;
        log.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            job,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }

    /// Writes every span as one tab-separated row:
    /// `index name start_ns end_ns parent job`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tjob")?;
        let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        for (i, s) in self.log().spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.job)
            )?;
        }
        out.flush()
    }
}

/// Self time (duration minus the union of its children) of every span
/// named `parent`, attributed to jobs: the gap before a child goes to that
/// child's job (the host was working towards that call), and the tail
/// after the last child goes to the most recently served job, and a
/// childless span goes to its own job, else to the most recently served
/// one. Returns `(job, self_ns)` pieces, unordered.
pub fn self_time_by_job(spans: &[Span], parent: &str) -> Vec<(u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = Vec::new();
    let mut front = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.name != parent {
            continue;
        }
        let mut kids: Vec<&Span> = children[i].iter().map(|&c| &spans[c]).collect();
        kids.sort_by_key(|k| k.start_ns);
        let mut cursor = s.start_ns;
        for k in kids {
            let job = k.job.unwrap_or(front);
            if k.start_ns > cursor {
                out.push((job, k.start_ns - cursor));
            }
            cursor = cursor.max(k.end_ns);
            front = job;
        }
        if children[i].is_empty() {
            front = s.job.unwrap_or(front);
        }
        if s.end_ns > cursor {
            out.push((front, s.end_ns - cursor));
        }
    }
    out
}

/// Self time of the spans named in `parents`, per job, over the first and
/// last quarter of a `jobs`-long stream (by job id), in µs.
pub fn quarter_self_us(spans: &[Span], parents: &[&str], jobs: usize) -> (f64, f64) {
    let quarter = jobs.div_ceil(4).max(1);
    let mut ns = [0u64; 4];
    for p in parents {
        for (job, t) in self_time_by_job(spans, p) {
            ns[(job as usize / quarter).min(3)] += t;
        }
    }
    let per_job = |t: u64| t as f64 / 1e3 / quarter as f64;
    (per_job(ns[0]), per_job(ns[3]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, s: u64, e: u64, parent: Option<usize>, job: Option<u64>) -> Span {
        Span {
            name,
            start_ns: s,
            end_ns: e,
            parent,
            job,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_attributes_gaps() {
        let spans = vec![
            span("step", 0, 100, None, None),
            span("run_plan", 10, 40, Some(0), Some(3)),
            span("run_plan", 50, 70, Some(0), Some(4)),
            span("step", 100, 130, None, None),
        ];
        let mut got = self_time_by_job(&spans, "step");
        got.sort();
        // 10 before job 3, 10 before job 4, 30 tail + 30 childless to job 4.
        assert_eq!(got, vec![(3, 10), (4, 10), (4, 30), (4, 30)]);
    }
}

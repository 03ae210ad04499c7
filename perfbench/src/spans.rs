//! The benchmark's own host-time spans, one around each call it makes
//! into a layer. Spans are kept in memory and written out as JSON at
//! exit; a span's self time is its duration minus its children's.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::report::json_str;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
    child_s: f64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; [`Spans::close`] takes it back.
#[must_use]
pub struct SpanId(usize);

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            child_s: 0.0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span (and any child a panic left open); returns its
    /// duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            let s = &mut self.spans[top];
            s.end_s = now;
            let d = s.end_s - s.start_s;
            if let Some(p) = s.parent {
                self.spans[p].child_s += d;
            }
            if top == id.0 {
                return d;
            }
        }
        panic!("span {} closed twice", self.spans[id.0].name);
    }

    /// Time `f` under a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name);
        let r = f();
        (r, self.close(id))
    }

    /// Self time per span name, heaviest first.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64)> {
        let mut agg: Vec<(&'static str, usize, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| !s.end_s.is_nan()) {
            let own = s.end_s - s.start_s - s.child_s;
            match agg.iter_mut().find(|a| a.0 == s.name) {
                Some(a) => {
                    a.1 += 1;
                    a.2 += own;
                }
                None => agg.push((s.name, 1, own)),
            }
        }
        agg.sort_by(|a, b| b.2.total_cmp(&a.2));
        agg
    }

    /// Write every closed span to `path` as JSON, with `header` (a JSON
    /// object body) alongside.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{{header}, \"spans\": [")?;
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_s.is_nan() {
                continue;
            }
            if !first {
                w.write_all(b",")?;
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "\n{{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"start_s\": {}, \
                 \"end_s\": {}, \"self_s\": {}}}",
                json_str(s.name),
                s.start_s,
                s.end_s,
                s.end_s - s.start_s - s.child_s
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        let outer = s.open("outer");
        let (_, inner) = s.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = s.close(outer);
        assert!(inner >= 0.005 && total >= inner);
        let t = s.self_times();
        let own = |n: &str| t.iter().find(|a| a.0 == n).expect("span").2;
        assert!((own("outer") - (total - inner)).abs() < 1e-9);
        assert!((own("inner") - inner).abs() < 1e-9);
    }

    #[test]
    fn close_unwinds_children_left_open() {
        let mut s = Spans::new();
        let outer = s.open("outer");
        let _leaked = s.open("inner");
        s.close(outer);
        assert_eq!(s.self_times().len(), 2);
    }
}

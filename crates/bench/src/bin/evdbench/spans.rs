//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written as Chrome trace-event JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    workload: &'static str,
    parent: Option<usize>,
    /// Chrome `tid`: spans on one lane never overlap without nesting.
    lane: usize,
    start_us: f64,
    end_us: f64,
}

pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Open a span on lane 0; returns its id.
    pub fn begin(&mut self, name: &str, workload: &'static str, parent: Option<usize>) -> usize {
        self.begin_on(name, workload, parent, 0)
    }

    pub fn begin_on(
        &mut self,
        name: &str,
        workload: &'static str,
        parent: Option<usize>,
        lane: usize,
    ) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            workload,
            parent,
            lane,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_us();
        match self.spans.get_mut(id) {
            Some(s) => {
                s.end_us = now;
                (s.end_us - s.start_us) * 1e-6
            }
            None => 0.0,
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Chrome trace-event JSON (load at <https://ui.perfetto.dev>): one
    /// complete (`"X"`) event per span, with its parent's id and name and
    /// its workload in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.and_then(|p| self.spans.get(p).map(|ps| (p, ps)));
            let (parent_id, parent_name) = match parent {
                Some((p, ps)) => (p.to_string(), ps.name.as_str()),
                None => ("null".to_string(), ""),
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{id},\"parent\":{parent_id},\"parent_name\":\"{}\",\"workload\":\"{}\"}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.lane,
                parent_name,
                s.workload
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_chrome_json() {
        let mut spans = Spans::default();
        let run = spans.begin("run", "w", None);
        let child = spans.begin_on("job", "w", Some(run), 2);
        assert!(spans.end(child) >= 0.0);
        assert!(spans.end(run) >= 0.0);
        let v = tcevd_trace::json::parse(&spans.chrome_json()).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(
            args.get("parent_name").and_then(|p| p.as_str()),
            Some("run")
        );
        assert_eq!(events[1].get("tid").and_then(|t| t.as_f64()), Some(2.0));
    }
}

//! The benchmark's own spans: one per call into a layer (`election`,
//! `build_tribe`, `run_until`, `collect_metrics`, `audit`, each layer
//! driver), kept in memory and written out when the traced pass ends.

use crate::json::Json;
use std::time::Instant;

/// One finished span. `parent` is the id of the span that was open when
/// this one started (0 = none); all spans of one pass share `pass`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub pass: &'static str,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
}

/// In-memory span recorder. Disabled (`Spans::off`) it only runs the
/// closure, so the untraced passes pay nothing for it.
pub struct Spans {
    origin: Option<Instant>,
    pass: &'static str,
    open: Vec<u64>,
    next_id: u64,
    done: Vec<Span>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans {
            origin: None,
            pass: "",
            open: Vec::new(),
            next_id: 1,
            done: Vec::new(),
        }
    }

    pub fn on() -> Spans {
        Spans {
            origin: Some(Instant::now()),
            ..Spans::off()
        }
    }

    /// Names the pass the following spans belong to.
    pub fn set_pass(&mut self, pass: &'static str) {
        self.pass = pass;
    }

    /// Runs `f` inside a span called `name`. `f` gets the recorder back, so
    /// spans it opens become children of this one.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let start_us = origin.elapsed().as_micros() as u64;
        let out = f(self);
        let end_us = origin.elapsed().as_micros() as u64;
        self.open.pop();
        self.done.push(Span {
            id,
            parent,
            pass: self.pass,
            name,
            start_us,
            end_us,
        });
        out
    }

    /// Duration in seconds of the last finished span called `name` in
    /// `pass`.
    pub fn seconds(&self, pass: &str, name: &str) -> Option<f64> {
        self.done
            .iter()
            .rev()
            .find(|s| s.pass == pass && s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e6)
    }

    /// One NDJSON line per span, in start order.
    pub fn to_ndjson(&self) -> String {
        let mut spans = self.done.clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("span", Json::Str(s.name.to_string())),
                    ("pass", Json::Str(s.pass.to_string())),
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("start_us", Json::Num(s.start_us as f64)),
                    ("end_us", Json::Num(s.end_us as f64)),
                ])
                .render()
                    + "\n"
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut s = Spans::on();
        s.set_pass("p");
        let v = s.time("outer", |s| s.time("inner", |_| 1) + 1);
        assert_eq!(v, 2);
        s.time("sibling", |_| ());
        let by_name = |n: &str| s.done.iter().find(|x| x.name == n).unwrap().clone();
        let (outer, inner, sibling) = (by_name("outer"), by_name("inner"), by_name("sibling"));
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, 0);
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
        assert!(s.done.iter().all(|x| x.pass == "p"));
        assert!(s.seconds("p", "inner").is_some());
        assert!(s.seconds("p", "missing").is_none());
        assert!(s.seconds("q", "inner").is_none());
        let text = s.to_ndjson();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("\"span\":\"outer\""));
    }

    #[test]
    fn disabled_recorder_only_runs_the_closure() {
        let mut s = Spans::off();
        assert_eq!(s.time("x", |_| 7), 7);
        assert!(s.done.is_empty());
    }
}

//! In-memory spans recorded by the benchmark around the calls it makes
//! into each layer, and the self-time arithmetic over them.
//!
//! A span is `(request, id, parent, name, start, end, items)`. Spans of
//! one request share the request id; a span's self time is its duration
//! minus the part its children cover. Spans stay in memory until the
//! run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

static BASE: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (one monotonic
/// clock shared by every thread).
pub fn now_ns() -> u64 {
    let base = *BASE.get_or_init(Instant::now);
    Instant::now().duration_since(base).as_nanos() as u64
}

#[derive(Clone, Debug)]
pub struct Span {
    pub req: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Work items the span covered (events, rows, bytes), or 0.
    pub items: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The spans of one request, built on whichever thread runs that part.
pub struct Tracer {
    req: u64,
    next: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(req: u64, first_id: u32) -> Tracer {
        Tracer {
            req,
            next: first_id,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span under the innermost open span.
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, items: u64) {
        self.spans.push(Span {
            req: self.req,
            id: self.next,
            parent: self.stack.last().copied(),
            name,
            start,
            end,
            items,
        });
        self.next += 1;
    }

    /// Open a span; children recorded until [`Tracer::exit`] nest under it.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let t = now_ns();
        self.push(name, t, t, 0);
        self.stack.push(self.next - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, slot: usize) {
        self.spans[slot].end = now_ns();
        self.stack.pop();
    }

    /// Time `f` as a leaf span; `items` counts what it returned.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> R,
        items: impl FnOnce(&R) -> u64,
    ) -> R {
        let t0 = now_ns();
        let r = f();
        let t1 = now_ns();
        let n = items(&r);
        self.push(name, t0, t1, n);
        r
    }
}

/// Self time of every span: its duration minus its children's, after
/// checking that each child lies inside its parent and that siblings do
/// not overlap. Returns `Err` naming the first span that breaks nesting.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut index: BTreeMap<(u64, u32), usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!(
                "span {} of request {} ends before it starts",
                s.name, s.req
            ));
        }
        index.insert((s.req, s.id), i);
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            let &pi = index
                .get(&(s.req, p))
                .ok_or_else(|| format!("span {} of request {} has no parent", s.name, s.req))?;
            let parent = &spans[pi];
            if s.start < parent.start || s.end > parent.end {
                return Err(format!(
                    "span {} of request {} lies outside its parent {}",
                    s.name, s.req, parent.name
                ));
            }
            children[pi].push(i);
        }
    }
    let mut out = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let mut kids: Vec<&Span> = children[i].iter().map(|&c| &spans[c]).collect();
        kids.sort_by_key(|k| k.start);
        for w in kids.windows(2) {
            if w[1].start < w[0].end {
                return Err(format!(
                    "spans {} and {} of request {} overlap",
                    w[0].name, w[1].name, s.req
                ));
            }
        }
        let covered: u64 = kids.iter().map(|k| k.dur()).sum();
        out.push(s.dur() - covered);
    }
    Ok(out)
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
            s.req, s.id, parent, s.name, s.start, s.end, s.items
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            req: 1,
            id,
            parent,
            name: "s",
            start,
            end,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans).unwrap(), vec![60, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_rejected() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
        ];
        assert!(self_times(&spans).is_err());
        let escaping = vec![span(0, None, 0, 100), span(1, Some(0), 90, 140)];
        assert!(self_times(&escaping).is_err());
    }
}

//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps each public call it makes into a layer (`try_send`,
//! `send_large`, `extract`, handler bodies, `SwitchShard::pump`, the
//! simulator's scenario call) in a [`span`]. A span records its name,
//! start, end, its own id and the id of the span open around it. Self
//! time is the span's duration minus the time its child spans cover; it is
//! accumulated per span name as spans close, and the first
//! [`RAW_CAP`] spans are kept whole and written out as a Chrome trace when
//! the benchmark ends.
//!
//! Recording is off unless [`start`] was called: an untimed pass pays one
//! relaxed load per wrapped call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Spans kept whole for the trace file; later spans only add to totals.
pub const RAW_CAP: usize = 100_000;

/// The layer boundaries the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    TrySend,
    SendLarge,
    Extract,
    Handler,
    Pump,
    Scenario,
}

impl Name {
    const COUNT: usize = 6;

    fn as_str(self) -> &'static str {
        match self {
            Name::TrySend => "try_send",
            Name::SendLarge => "send_large",
            Name::Extract => "extract",
            Name::Handler => "handler",
            Name::Pump => "pump",
            Name::Scenario => "scenario",
        }
    }
}

/// Accumulated spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals, indexed by [`Name`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals([Total; Name::COUNT]);

impl Totals {
    pub fn get(&self, name: Name) -> Total {
        self.0[name as usize]
    }

    /// Totals accumulated since `earlier`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut out = *self;
        for (o, e) in out.0.iter_mut().zip(earlier.0.iter()) {
            o.count -= e.count;
            o.total_ns -= e.total_ns;
            o.self_ns -= e.self_ns;
        }
        out
    }

    /// Add `other` into these totals.
    pub fn add(&mut self, other: &Totals) {
        for (o, e) in self.0.iter_mut().zip(other.0.iter()) {
            o.count += e.count;
            o.total_ns += e.total_ns;
            o.self_ns += e.self_ns;
        }
    }

    /// Mean self time of `name`, in ns per span (0 with no spans).
    pub fn self_ns_per_span(&self, name: Name) -> f64 {
        let t = self.get(name);
        if t.count == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.count as f64
        }
    }
}

struct Open {
    name: Name,
    id: u64,
    parent: u64,
    start: Instant,
    child_ns: u64,
}

struct Raw {
    name: Name,
    id: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    totals: Totals,
    raw: Vec<Raw>,
}

static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Begin recording on this thread (clears anything recorded before).
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::with_capacity(16),
            totals: Totals::default(),
            raw: Vec::with_capacity(RAW_CAP),
        })
    });
    ON.store(true, Ordering::Relaxed);
}

/// Stop recording; later [`span`] calls cost one load again.
pub fn stop() {
    ON.store(false, Ordering::Relaxed);
}

/// Totals recorded so far (all zero when nothing was recorded).
pub fn totals() -> Totals {
    REC.with(|r| r.borrow().as_ref().map(|r| r.totals).unwrap_or_default())
}

/// Run `f` inside a span named `name` when recording is on.
#[inline]
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    open(name);
    let r = f();
    close();
    r
}

fn open(name: Name) {
    REC.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("trace::start runs before spans");
        let id = rec.next_id;
        rec.next_id += 1;
        let parent = rec.stack.last().map_or(0, |o| o.id);
        rec.stack.push(Open {
            name,
            id,
            parent,
            start: Instant::now(),
            child_ns: 0,
        });
    });
}

fn close() {
    let end = Instant::now();
    REC.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().expect("trace::start runs before spans");
        let o = rec.stack.pop().expect("span closed without being opened");
        let dur = end.duration_since(o.start).as_nanos() as u64;
        let t = &mut rec.totals.0[o.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
        if let Some(parent) = rec.stack.last_mut() {
            parent.child_ns += dur;
        }
        if rec.raw.len() < RAW_CAP {
            let start_ns = o.start.duration_since(rec.epoch).as_nanos() as u64;
            rec.raw.push(Raw {
                name: o.name,
                id: o.id,
                parent: o.parent,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    });
}

/// The kept spans as a Chrome trace document (`chrome://tracing`,
/// Perfetto): complete events in microseconds, ids in `args`.
pub fn chrome_json() -> String {
    REC.with(|r| {
        let guard = r.borrow();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in guard.iter().flat_map(|rec| rec.raw.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name.as_str(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent
            );
        }
        out.push_str("]}\n");
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        span(Name::Extract, || {
            span(Name::Handler, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        stop();
        let t = totals();
        let (outer, inner) = (t.get(Name::Extract), t.get(Name::Handler));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.self_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(chrome_json().contains("\"parent\":1"));
    }
}

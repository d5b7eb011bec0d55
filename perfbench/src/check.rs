//! Delivery checker shared by every live workload.
//!
//! Each message payload starts with a 16-byte header: the per-flow
//! sequence number, the flow index and, where latency is measured, the
//! send time in nanoseconds since the process epoch (0 = not stamped).
//! Handlers hand every payload to [`deliver`], which counts in-order,
//! duplicate and out-of-order deliveries per flow and records one-way
//! latency samples. The workloads run on one thread, so the checker lives
//! in that thread's local storage and handlers capture nothing.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::OnceLock;
use std::time::Instant;

/// Bytes of the checker header at the front of every payload.
pub const HEADER: usize = 16;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch; never 0, so 0 can mean "unstamped".
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64 + 1
}

/// Write the checker header into the front of `buf`.
pub fn stamp(buf: &mut [u8], flow: u32, seq: u32, send_ns: u64) {
    buf[0..4].copy_from_slice(&seq.to_le_bytes());
    buf[4..8].copy_from_slice(&flow.to_le_bytes());
    buf[8..16].copy_from_slice(&send_ns.to_le_bytes());
}

#[derive(Debug, Default)]
struct Flow {
    /// Next sequence number expected in order.
    next: u32,
    /// Sequence numbers that arrived ahead of `next`.
    early: BTreeSet<u32>,
    dups: u64,
    out_of_order: u64,
}

/// Delivery failures against what the senders attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    pub lost: u64,
    pub duplicated: u64,
    pub out_of_order: u64,
    /// Payloads too short, of an unknown flow, or with a damaged body.
    pub bad_payload: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.lost + self.duplicated + self.out_of_order + self.bad_payload
    }
}

#[derive(Default)]
struct Checker {
    flows: Vec<Flow>,
    delivered: u64,
    payload_bytes: u64,
    /// One-way latency samples (ns) of stamped messages, and the subset
    /// carried in full 128-byte frames.
    latencies: Vec<u64>,
    latencies_full: Vec<u64>,
    bad_payloads: u64,
    /// Seeds the body pattern of large messages (see [`fill_large`]).
    large_key: u8,
}

thread_local! {
    static CHECK: RefCell<Checker> = RefCell::new(Checker::default());
}

/// Start checking `flows` fresh flows; latency buffers keep their capacity.
pub fn reset(flows: usize) {
    CHECK.with(|c| {
        let mut c = c.borrow_mut();
        c.flows.clear();
        c.flows.resize_with(flows, Flow::default);
        c.delivered = 0;
        c.payload_bytes = 0;
        c.latencies.clear();
        c.latencies_full.clear();
        c.bad_payloads = 0;
    });
}

/// Reserve latency-sample space up front, so the measured loops allocate
/// nothing on the checker's behalf.
pub fn reserve(samples: usize) {
    CHECK.with(|c| {
        let mut c = c.borrow_mut();
        c.latencies.reserve(samples);
        c.latencies_full.reserve(samples);
    });
}

/// A handler received `data`.
pub fn deliver(data: &[u8]) {
    let now = now_ns();
    CHECK.with(|c| {
        let mut c = c.borrow_mut();
        if data.len() < HEADER {
            c.bad_payloads += 1;
            return;
        }
        let seq = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
        let flow = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes")) as usize;
        let sent = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
        let Some(f) = c.flows.get_mut(flow) else {
            c.bad_payloads += 1;
            return;
        };
        if seq == f.next {
            f.next += 1;
            while f.early.remove(&f.next) {
                f.next += 1;
            }
        } else if seq < f.next || !f.early.insert(seq) {
            f.dups += 1;
            return;
        } else {
            f.out_of_order += 1;
        }
        c.delivered += 1;
        c.payload_bytes += data.len() as u64;
        if sent != 0 {
            let lat = now.saturating_sub(sent);
            c.latencies.push(lat);
            if data.len() == fm_core::FM_FRAME_PAYLOAD {
                c.latencies_full.push(lat);
            }
        }
    });
}

/// A large-message handler received `data`, built by [`fill_large`] with
/// the key last given to [`set_large_key`].
pub fn deliver_large(data: &[u8], expect_len: usize) {
    let key = CHECK.with(|c| c.borrow().large_key);
    let body_ok = data.len() == expect_len
        && data[HEADER..]
            .iter()
            .enumerate()
            .all(|(i, &b)| b == large_byte(key, i));
    if !body_ok {
        CHECK.with(|c| c.borrow_mut().bad_payloads += 1);
        return;
    }
    deliver(data);
}

/// Fill a large message body behind its header with a pattern of `key`,
/// so reassembly errors anywhere in it are caught.
pub fn fill_large(buf: &mut [u8], key: u8) {
    for (i, b) in buf[HEADER..].iter_mut().enumerate() {
        *b = large_byte(key, i);
    }
}

/// The key [`deliver_large`] checks bodies against.
pub fn set_large_key(key: u8) {
    CHECK.with(|c| c.borrow_mut().large_key = key);
}

fn large_byte(key: u8, i: usize) -> u8 {
    key.wrapping_add(i as u8).rotate_left(i as u32 % 7)
}

/// Unique messages delivered since [`reset`].
pub fn delivered() -> u64 {
    CHECK.with(|c| c.borrow().delivered)
}

/// Payload bytes of unique deliveries since [`reset`].
pub fn payload_bytes() -> u64 {
    CHECK.with(|c| c.borrow().payload_bytes)
}

/// Move the latency samples (all, full-frame) gathered since the last
/// take into `all` and `full`; the checker keeps its buffers' capacity.
pub fn take_latencies(all: &mut Vec<u64>, full: &mut Vec<u64>) {
    CHECK.with(|c| {
        let mut c = c.borrow_mut();
        all.clear();
        full.clear();
        all.extend_from_slice(&c.latencies);
        full.extend_from_slice(&c.latencies_full);
        c.latencies.clear();
        c.latencies_full.clear();
    });
}

/// Unique messages delivered per flow since [`reset`].
pub fn unique_per_flow() -> Vec<u64> {
    CHECK.with(|c| {
        let c = c.borrow();
        c.flows
            .iter()
            .map(|f| f.next as u64 + f.early.len() as u64)
            .collect()
    })
}

/// Failures given how many messages each flow's sender had accepted.
pub fn failures(sent: &[u64]) -> Failures {
    CHECK.with(|c| {
        let c = c.borrow();
        assert_eq!(sent.len(), c.flows.len(), "one sent count per flow");
        let mut out = Failures {
            bad_payload: c.bad_payloads,
            ..Failures::default()
        };
        for (f, &s) in c.flows.iter().zip(sent) {
            let unique = f.next as u64 + f.early.len() as u64;
            out.lost += s.saturating_sub(unique);
            out.duplicated += f.dups + unique.saturating_sub(s);
            out.out_of_order += f.out_of_order;
        }
        out
    })
}

//! A timer retransmission on a warmed ring endpoint performs no heap
//! allocation.
//!
//! The steady-state allocation gate in `bench_gate` drives a two-thread
//! pingpong; whenever the scheduler stalls the echo thread past the
//! retransmission timeout, the sender's first timer retransmit runs on a
//! path the warmup never exercised. This test forces exactly that, on one
//! thread and the virtual tick (one tick per `extract`), so the result
//! does not depend on scheduling.
//!
//! Only one test lives in this file: the counting allocator is global to
//! the test binary, and a second test running concurrently would pollute
//! the reading.

use fm_bench::alloc_track::{allocations, CountingAlloc};
use fm_core::mem::{FabricKind, MemCluster};
use fm_core::{EndpointConfig, HandlerId, MemEndpoint, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn timer_retransmit_after_warmup_allocates_nothing() {
    let config = EndpointConfig::default();
    let mut nodes = MemCluster::with_fabric(2, config, FabricKind::Ring);
    let mut b = nodes.pop().expect("node 1");
    let mut a = nodes.pop().expect("node 0");
    let hb = b.register_handler(|out, src, data| out.send_copy(src, HandlerId(1), data));
    let echoes = Arc::new(AtomicU64::new(0));
    let e2 = echoes.clone();
    let ha = a.register_handler(move |_, _, _| {
        e2.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ha, HandlerId(1), "echo handler id is fixed by construction");

    let payload = [0x5Au8; 16];
    let mut sent = 0u64;
    // Both ends extract in turn until every ping sent so far is echoed.
    let settle = |a: &mut MemEndpoint, b: &mut MemEndpoint, sent: u64| {
        while echoes.load(Ordering::Relaxed) < sent {
            b.extract();
            a.extract();
        }
    };
    for _ in 0..2_000 {
        a.send(NodeId(1), hb, &payload);
        sent += 1;
        settle(&mut a, &mut b, sent);
    }

    let before = allocations();
    let retx_before = a.stats().timer_retransmits;
    // The receiver sits idle while the sender's clock runs past the
    // retransmission timeout: the ping is resent by the timer.
    a.send(NodeId(1), hb, &payload);
    sent += 1;
    for _ in 0..config.rto_initial + 64 {
        a.extract();
    }
    let forced = a.stats().timer_retransmits - retx_before;
    // Then the receiver wakes, drops the duplicate and echoes once, and
    // the pingpong carries on.
    settle(&mut a, &mut b, sent);
    for _ in 0..100 {
        a.send(NodeId(1), hb, &payload);
        sent += 1;
        settle(&mut a, &mut b, sent);
    }
    let steady = allocations().since(before);

    assert!(forced >= 1, "the timer never fired ({forced} retransmits)");
    assert!(b.stats().duplicates >= 1, "the receiver saw no duplicate");
    assert_eq!(
        steady.allocs, 0,
        "{} allocations ({} B) across a timer retransmission",
        steady.allocs, steady.bytes
    );
}

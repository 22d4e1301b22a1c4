//! Proof that the switch broadcast path allocates no more than unicast.
//!
//! `Switch::route_frame` moves the reassembled wire bytes into the *last*
//! egress port and keeps its destination-port list in a reusable scratch
//! buffer, so a flood that resolves to a single egress port (the common
//! 2-port/top-of-rack case) performs exactly the same heap traffic as a
//! MAC-routed unicast. Before this was fixed, the flood path cloned the
//! wire `Vec<u8>` once per egress port and dropped the original — one
//! extra allocation per frame even with a single destination.
//!
//! The assertion is differential: absolute counts include identical
//! framing/deframing work on both sides, so the flood run must equal the
//! unicast run exactly. Only the measuring thread's allocations count:
//! the test harness's own thread allocates while it sets the test up,
//! and on a busy host that can overlap the measured rounds. This file
//! still contains a single test, so nothing else runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use firesim_core::{AgentCtx, Cycle, SimAgent, TokenWindow};
use firesim_net::{EtherType, EthernetFrame, Flit, FrameFramer, MacAddr, Switch, SwitchConfig};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread only. Const-initialized and without a
    /// destructor, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates directly to the system allocator; the counter has no
// effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const W: u32 = 64;
const PAYLOAD: usize = 10;

/// Runs one switch round with `frame` arriving on port 0, dropping the
/// outputs. Identical work on both sides of the differential measurement
/// except for the routing decision inside the switch.
fn round(switch: &mut Switch, now: u64, frame: &EthernetFrame) {
    let mut input = TokenWindow::new(W);
    let mut framer = FrameFramer::new();
    framer.enqueue(frame.clone());
    let mut off = 0;
    while let Some(flit) = framer.next_flit() {
        input.push(off, flit).unwrap();
        off += 1;
    }
    let inputs: Vec<TokenWindow<Flit>> = vec![input, TokenWindow::new(W)];
    let mut ctx = AgentCtx::standalone(Cycle::new(now), W, inputs, 2);
    switch.advance(&mut ctx);
    drop(ctx.into_outputs());
}

fn measure(switch: &mut Switch, frame: &EthernetFrame, rounds: u64) -> u64 {
    // Warm up: deframer buffers, egress queues, and the route scratch list
    // reach steady-state capacity.
    for r in 0..4 {
        round(switch, r * u64::from(W), frame);
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for r in 4..4 + rounds {
        round(switch, r * u64::from(W), frame);
    }
    COUNTING.with(|c| c.set(false));
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn flood_allocates_no_more_than_unicast() {
    const ROUNDS: u64 = 64;

    // Broadcast destination: floods, resolving to the single non-ingress
    // port of a 2-port switch.
    let mut flood_sw = Switch::new("flood", SwitchConfig::new(2));
    let flood_frame = EthernetFrame::new(
        MacAddr::BROADCAST,
        MacAddr::from_node_index(0),
        EtherType::Stream,
        Bytes::from(vec![0xCD; PAYLOAD]),
    );

    // Routed destination: unicast to port 1 — the wire has always been
    // moved (never cloned) on this path.
    let mut unicast_sw = Switch::new("unicast", SwitchConfig::new(2));
    unicast_sw.add_route(MacAddr::from_node_index(1), 1);
    let unicast_frame = EthernetFrame::new(
        MacAddr::from_node_index(1),
        MacAddr::from_node_index(0),
        EtherType::Stream,
        Bytes::from(vec![0xCD; PAYLOAD]),
    );

    let flood_allocs = measure(&mut flood_sw, &flood_frame, ROUNDS);
    let unicast_allocs = measure(&mut unicast_sw, &unicast_frame, ROUNDS);

    // Both switches really routed every frame.
    assert_eq!(flood_sw.stats_handle().lock().frames_flooded, 4 + ROUNDS);
    assert_eq!(
        unicast_sw.stats_handle().lock().frames_forwarded,
        4 + ROUNDS
    );

    assert_eq!(
        flood_allocs, unicast_allocs,
        "single-destination flood must match unicast allocation-for-allocation \
         (flood {flood_allocs}, unicast {unicast_allocs} over {ROUNDS} rounds)"
    );
}

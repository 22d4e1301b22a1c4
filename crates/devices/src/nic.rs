//! The network interface controller (paper §III-A2, Fig 3).
//!
//! The NIC is split into three blocks exactly as in the paper:
//!
//! * **Controller** — four queues exposed to the CPU as memory-mapped IO:
//!   send requests, receive requests, send completions, receive
//!   completions; plus an interrupt line asserted while a completion queue
//!   is occupied.
//! * **Send path** — *reader* (issues 8-byte-aligned reads for packet data
//!   from memory), *reservation buffer* (holds read data awaiting
//!   transmission), *aligner* (drops the slack bytes produced by aligned
//!   reads of unaligned packets), and *rate limiter* (a token bucket:
//!   the counter is incremented by `k` every `p` cycles and decremented
//!   per flit sent, making the effective bandwidth `k/p` of the native
//!   200 Gbit/s — runtime-configurable, no resynthesis, and with proper
//!   backpressure into the NIC).
//! * **Receive path** — *packet buffer* (drops at full-packet granularity
//!   when space is insufficient, so the OS never sees a partial packet)
//!   and *writer* (writes packet bytes to the receive buffers supplied by
//!   the CPU, completing only after all writes are done).
//!
//! The top-level interface is FAME-1 decoupled: each target cycle the NIC
//! consumes at most one network token and produces at most one
//! ([`Nic::tick`]).

use std::collections::VecDeque;
use std::ops::Range;

use firesim_net::{Flit, MacAddr};
use firesim_riscv::mem::Memory;

use crate::mmio::MmioDevice;

/// Register map offsets (64-bit registers).
#[allow(missing_docs)]
pub mod reg {
    pub const SEND_REQ: u64 = 0x00;
    pub const RECV_REQ: u64 = 0x08;
    pub const COUNTS: u64 = 0x10;
    pub const SEND_COMP: u64 = 0x18;
    pub const RECV_COMP: u64 = 0x20;
    pub const INTR_MASK: u64 = 0x28;
    pub const MACADDR: u64 = 0x30;
    pub const RATE_LIMIT: u64 = 0x38;
}

/// NIC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfig {
    /// Depth of each controller queue.
    pub queue_depth: usize,
    /// Reservation buffer capacity in bytes (send path).
    pub resbuf_bytes: usize,
    /// Packet buffer capacity in bytes (receive path).
    pub pktbuf_bytes: usize,
    /// Token-bucket increment `k` (0 disables rate limiting).
    pub rate_k: u16,
    /// Token-bucket period `p` in cycles.
    pub rate_p: u16,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            queue_depth: 16,
            resbuf_bytes: 4096,
            pktbuf_bytes: 64 * 1024,
            rate_k: 0,
            rate_p: 1,
        }
    }
}

/// NIC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Packets fully transmitted onto the link.
    pub tx_packets: u64,
    /// Bytes transmitted (packet payloads as seen on the wire).
    pub tx_bytes: u64,
    /// Packets fully received into the packet buffer.
    pub rx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Packets dropped because the packet buffer was full.
    pub rx_dropped: u64,
}

impl NicStats {
    /// Appends every counter as a `(name, value)` pair, prefixed with
    /// `prefix` (e.g. `"nic_"`), for [`SimAgent::app_counters`]-style
    /// observability exports.
    ///
    /// [`SimAgent::app_counters`]: firesim_core::SimAgent::app_counters
    pub fn export(&self, prefix: &str, out: &mut Vec<(String, u64)>) {
        out.push((format!("{prefix}tx_packets"), self.tx_packets));
        out.push((format!("{prefix}tx_bytes"), self.tx_bytes));
        out.push((format!("{prefix}rx_packets"), self.rx_packets));
        out.push((format!("{prefix}rx_bytes"), self.rx_bytes));
        out.push((format!("{prefix}rx_dropped"), self.rx_dropped));
    }
}

/// The NIC's network side over one token window, for [`Nic::advance`]
/// and [`Nic::exchange`]: the window's incoming flits, the offset the
/// next tick runs at, and the outgoing flits not yet handed on.
#[derive(Debug, Default)]
pub struct NicPort {
    rx: Vec<(u32, Flit)>,
    rx_idx: usize,
    next: u32,
    /// Outgoing flits `(window offset, flit)`, in offset order, for the
    /// owner to drain into its output window.
    pub tx: Vec<(u32, Flit)>,
}

impl NicPort {
    /// Starts a window: `rx` (in increasing offset order) becomes its
    /// incoming flits and the next tick runs at offset 0.
    pub fn start_window(&mut self, rx: impl IntoIterator<Item = (u32, Flit)>) {
        self.rx.clear();
        self.rx.extend(rx);
        self.rx_idx = 0;
        self.next = 0;
        debug_assert!(self.tx.is_empty(), "outgoing flits left undrained");
    }

    /// Window offset of the next tick.
    pub fn offset(&self) -> u32 {
        self.next
    }

    /// Offset of the next incoming flit not yet delivered. One below
    /// [`offset`](Self::offset) is never delivered, like any after it.
    pub fn next_rx(&self) -> Option<u32> {
        self.rx.get(self.rx_idx).map(|&(o, _)| o)
    }
}

#[derive(Debug, Clone, Copy)]
struct ReaderState {
    /// Unaligned packet start address.
    addr: u64,
    /// Packet length in bytes.
    len: u32,
    /// Next aligned read cursor.
    cursor: u64,
    /// One past the last aligned address to read.
    end: u64,
}

/// The NIC. See the [module docs](self).
#[derive(Debug)]
pub struct Nic {
    mac: MacAddr,
    config: NicConfig,

    // Controller queues.
    send_reqs: VecDeque<(u64, u32)>,
    /// The hull of the words the queued send requests will read, kept
    /// for [`Nic::dma_footprint`]. Derived state, not checkpointed.
    queued_reads: Range<u64>,
    recv_reqs: VecDeque<u64>,
    send_comps: VecDeque<u64>,
    recv_comps: VecDeque<u32>,
    intr_mask: u64,

    // Send path.
    reader: Option<ReaderState>,
    resbuf: VecDeque<u8>,
    /// Lengths of packets whose bytes are flowing through the resbuf.
    tx_pkts: VecDeque<u32>,
    /// Remaining bytes of the packet currently transmitting.
    tx_remaining: Option<u32>,
    tokens: i64,
    cycle: u64,

    // Receive path.
    rx_cur: Vec<u8>,
    rx_dropping: bool,
    rx_buffered: VecDeque<Vec<u8>>,
    rx_buffered_bytes: usize,
    writer: Option<(Vec<u8>, usize, u64)>,

    stats: NicStats,
}

impl Nic {
    /// Creates a NIC with the given MAC address.
    pub fn new(mac: MacAddr, config: NicConfig) -> Self {
        Nic {
            mac,
            send_reqs: VecDeque::new(),
            queued_reads: EMPTY,
            recv_reqs: VecDeque::new(),
            send_comps: VecDeque::new(),
            recv_comps: VecDeque::new(),
            intr_mask: 0,
            reader: None,
            resbuf: VecDeque::new(),
            tx_pkts: VecDeque::new(),
            tx_remaining: None,
            tokens: i64::from(config.rate_k.max(1)),
            cycle: 0,
            rx_cur: Vec::new(),
            rx_dropping: false,
            rx_buffered: VecDeque::new(),
            rx_buffered_bytes: 0,
            writer: None,
            stats: NicStats::default(),
            config,
        }
    }

    /// The NIC's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Statistics counters.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Reconfigures the token-bucket rate limiter at runtime: effective
    /// bandwidth becomes `k/p` of the native link rate. `k = 0` disables
    /// limiting.
    pub fn set_rate_limit(&mut self, k: u16, p: u16) {
        self.config.rate_k = k;
        self.config.rate_p = p.max(1);
        self.tokens = self.tokens.min(i64::from(k.max(1)) * 2);
    }

    /// True when a [`Nic::tick`] with no incoming flit would change
    /// nothing observable: no DMA engine active, no queued work that a
    /// tick could start, and nothing buffered for transmission. In this
    /// state only the cycle counter and the rate-limiter refill move
    /// until the next incoming flit, and no DMA touches memory.
    ///
    /// `rx_buffered` plus `recv_reqs` both nonempty would let a tick pair
    /// them into a writer, so quiescence requires at least one empty.
    pub fn is_quiescent(&self) -> bool {
        self.reader.is_none()
            && self.writer.is_none()
            && self.send_reqs.is_empty()
            && self.resbuf.is_empty()
            && self.tx_pkts.is_empty()
            && self.tx_remaining.is_none()
            && (self.rx_buffered.is_empty() || self.recv_reqs.is_empty())
    }

    /// True when the interrupt line cannot change before the CPU next
    /// accesses the NIC's registers, whatever the NIC does meanwhile:
    /// either both sources are masked, or the line is already up — the
    /// completion queues that hold it up drain only through MMIO reads.
    pub fn interrupt_frozen(&self) -> bool {
        self.intr_mask & 0b11 == 0 || self.interrupt()
    }

    /// The DRAM the DMA engines can still touch before the CPU next
    /// accesses the NIC's registers and before another incoming packet
    /// completes: `(reads, writes)`, each a range covering the bytes
    /// involved (`start >= end` when empty).
    ///
    /// * Reads: the aligned words the reader has yet to fetch for its
    ///   current packet and for every queued send request.
    /// * Writes: what the writer has yet to store of its current packet,
    ///   and each buffered packet paired, in order, with a posted
    ///   receive buffer.
    pub fn dma_footprint(&self) -> (Range<u64>, Range<u64>) {
        let mut reads = self.queued_reads.clone();
        if let Some(r) = &self.reader {
            reads = hull(reads, r.cursor..r.end);
        }
        let mut writes = EMPTY;
        if let Some((pkt, cursor, addr)) = &self.writer {
            writes = addr.saturating_add(*cursor as u64)..addr.saturating_add(pkt.len() as u64);
        }
        for (pkt, &addr) in self.rx_buffered.iter().zip(&self.recv_reqs) {
            writes = hull(writes, addr..addr.saturating_add(pkt.len() as u64));
        }
        (reads, writes)
    }

    /// The hull of the words the queued send requests will read.
    fn queued_hull(&self) -> Range<u64> {
        self.send_reqs
            .iter()
            .fold(EMPTY, |h, &(addr, len)| hull(h, read_words(addr, len)))
    }

    /// Advances the NIC `cycles` target cycles from the port's current
    /// window offset, bit-identical to as many [`Nic::exchange`] calls:
    /// incoming flits are consumed at their offsets and outgoing ones
    /// queued in [`NicPort::tx`] with theirs.
    ///
    /// Stretches in which a tick would only refill the token bucket —
    /// a reader backpressured by a full reservation buffer, a writer with
    /// nothing to write, a transmitter waiting for tokens or with nothing
    /// to send — are jumped in closed form up to the next incoming flit.
    pub fn advance(&mut self, mem: &mut Memory, port: &mut NicPort, cycles: u32) {
        let end = port.next + cycles;
        while port.next < end {
            let quiet = port.next_rx().map_or(end, |o| o.clamp(port.next, end)) - port.next;
            let idle = self.idle_ticks(u64::from(quiet));
            if idle > 0 {
                self.idle(idle);
                port.next += idle as u32;
            } else {
                self.exchange(mem, port);
            }
        }
    }

    /// One [`Nic::tick`] at the port's current window offset: delivers
    /// the incoming flit due then, if any, and queues the outgoing one.
    pub fn exchange(&mut self, mem: &mut Memory, port: &mut NicPort) {
        let off = port.next;
        let rx = match port.rx.get(port.rx_idx) {
            Some(&(o, f)) if o == off => {
                port.rx_idx += 1;
                Some(f)
            }
            _ => None,
        };
        if let Some(flit) = self.tick(mem, rx) {
            port.tx.push((off, flit));
        }
        port.next += 1;
    }

    /// How many of the next ticks, at most `max` and with no incoming
    /// flit, would change nothing but the cycle counter and the token
    /// bucket.
    fn idle_ticks(&self, max: u64) -> u64 {
        // The writer writes, or pairs a buffered packet with a buffer.
        if self.writer.is_some() || (!self.rx_buffered.is_empty() && !self.recv_reqs.is_empty()) {
            return 0;
        }
        // The reader starts a queued request, or has room to read.
        match &self.reader {
            None if !self.send_reqs.is_empty() => return 0,
            Some(r) if r.cursor >= r.end || self.resbuf.len() + 8 <= self.config.resbuf_bytes => {
                return 0
            }
            _ => {}
        }
        // With the reader stalled, a transmitter short of bytes stays so.
        let starved = match self.tx_remaining {
            Some(remaining) => self.resbuf.len() < (remaining as usize).min(8),
            None => self.tx_pkts.is_empty(),
        };
        if starved {
            return max;
        }
        // Otherwise it acts on the first tick whose refill leaves a token.
        if self.config.rate_k == 0 || self.tokens > 0 {
            return 0;
        }
        let (k, p) = (
            u64::from(self.config.rate_k),
            u64::from(self.config.rate_p.max(1)),
        );
        let refills = self.tokens.unsigned_abs() / k + 1;
        (self.cycle / p)
            .checked_add(refills)
            .and_then(|r| r.checked_mul(p))
            .map_or(max, |acting| (acting - self.cycle - 1).min(max))
    }

    /// Bulk-advances `cycles` ticks that [`idle_ticks`](Self::idle_ticks)
    /// proved idle. The token bucket admits a closed form because refills
    /// are monotone non-decreasing under the cap and nothing transmits:
    /// `t_n = min(t_0 + n*k, cap)`.
    fn idle(&mut self, cycles: u64) {
        if self.config.rate_k > 0 {
            let p = u64::from(self.config.rate_p.max(1));
            let refills = (self.cycle + cycles) / p - self.cycle / p;
            if refills > 0 {
                let cap = i64::from(self.config.rate_k) * 2 + 2;
                let added = i64::try_from(refills)
                    .ok()
                    .and_then(|r| r.checked_mul(i64::from(self.config.rate_k)))
                    .and_then(|add| self.tokens.checked_add(add))
                    .unwrap_or(i64::MAX);
                self.tokens = added.min(cap);
            }
        } else {
            self.tokens = 1;
        }
        self.cycle += cycles;
    }

    /// Advances the NIC by one target cycle.
    ///
    /// `rx` is this cycle's incoming network token (if the link carried
    /// valid data); the return value is this cycle's outgoing token.
    /// `mem` is the blade's functional memory, used by the reader and
    /// writer DMA engines (8 bytes per cycle each, matching the TileLink
    /// port width).
    pub fn tick(&mut self, mem: &mut Memory, rx: Option<Flit>) -> Option<Flit> {
        self.cycle += 1;

        // --- Rate limiter refill. ---
        if self.config.rate_k > 0 {
            if self
                .cycle
                .is_multiple_of(u64::from(self.config.rate_p.max(1)))
            {
                let cap = i64::from(self.config.rate_k) * 2 + 2;
                self.tokens = (self.tokens + i64::from(self.config.rate_k)).min(cap);
            }
        } else {
            self.tokens = 1; // unlimited: always exactly one flit per cycle
        }

        // --- Receive path: packet buffer. ---
        if let Some(flit) = rx {
            let bytes = &flit.bytes()[..flit.byte_len()];
            if !self.rx_dropping {
                if self.rx_buffered_bytes + self.rx_cur.len() + bytes.len()
                    > self.config.pktbuf_bytes
                {
                    // Insufficient space: drop this packet entirely.
                    self.rx_dropping = true;
                    self.rx_cur.clear();
                    self.stats.rx_dropped += 1;
                } else {
                    self.rx_cur.extend_from_slice(bytes);
                }
            }
            if flit.last {
                if !self.rx_dropping {
                    let pkt = std::mem::take(&mut self.rx_cur);
                    self.rx_buffered_bytes += pkt.len();
                    self.stats.rx_packets += 1;
                    self.stats.rx_bytes += pkt.len() as u64;
                    self.rx_buffered.push_back(pkt);
                }
                self.rx_dropping = false;
            }
        }

        // --- Receive path: writer (8 bytes per cycle). ---
        if self.writer.is_none() {
            if let (Some(_), Some(_)) = (self.rx_buffered.front(), self.recv_reqs.front()) {
                let pkt = self.rx_buffered.pop_front().expect("checked");
                let addr = self.recv_reqs.pop_front().expect("checked");
                self.rx_buffered_bytes -= pkt.len();
                self.writer = Some((pkt, 0, addr));
            }
        }
        if let Some((pkt, cursor, addr)) = self.writer.take() {
            let n = (pkt.len() - cursor).min(8);
            // Writes to unmapped addresses are dropped silently (a real
            // DMA would raise a bus error; software owns buffer validity).
            let _ = mem.write_bytes(addr + cursor as u64, &pkt[cursor..cursor + n]);
            let cursor = cursor + n;
            if cursor >= pkt.len() {
                if self.recv_comps.len() < self.config.queue_depth {
                    self.recv_comps.push_back(pkt.len() as u32);
                }
            } else {
                self.writer = Some((pkt, cursor, addr));
            }
        }

        // --- Send path: reader (one aligned 8-byte read per cycle). ---
        if self.reader.is_none() {
            if let Some(&(addr, len)) = self.send_reqs.front() {
                let start = addr & !7;
                let end = (addr + u64::from(len) + 7) & !7;
                self.send_reqs.pop_front();
                self.queued_reads = self.queued_hull();
                self.reader = Some(ReaderState {
                    addr,
                    len,
                    cursor: start,
                    end,
                });
                self.tx_pkts.push_back(len);
            }
        }
        if let Some(mut r) = self.reader.take() {
            // Respect reservation-buffer backpressure.
            if self.resbuf.len() + 8 <= self.config.resbuf_bytes && r.cursor < r.end {
                if let Ok(chunk) = mem.read_bytes(r.cursor, 8) {
                    // Aligner: keep only the packet's own bytes.
                    let lo = r.addr.max(r.cursor) - r.cursor;
                    let hi = (r.addr + u64::from(r.len)).min(r.cursor + 8) - r.cursor;
                    if lo < hi {
                        self.resbuf.extend(&chunk[lo as usize..hi as usize]);
                    }
                }
                r.cursor += 8;
            }
            if r.cursor >= r.end {
                // All reads issued: send completion (paper semantics).
                if self.send_comps.len() < self.config.queue_depth {
                    self.send_comps.push_back(1);
                }
            } else {
                self.reader = Some(r);
            }
        }

        // --- Send path: transmit one flit through the rate limiter. ---
        let mut out = None;
        if self.tokens > 0 {
            if self.tx_remaining.is_none() {
                if let Some(len) = self.tx_pkts.front().copied() {
                    if len > 0 {
                        self.tx_remaining = Some(len);
                    } else {
                        self.tx_pkts.pop_front();
                    }
                }
            }
            if let Some(remaining) = self.tx_remaining {
                let n = (remaining as usize).min(8);
                if self.resbuf.len() >= n {
                    let mut buf = [0u8; 8];
                    for (slot, b) in buf.iter_mut().zip(self.resbuf.drain(..n)) {
                        *slot = b;
                    }
                    let last = remaining as usize == n;
                    out = Some(Flit::from_bytes(&buf[..n], last));
                    self.tokens -= 1;
                    self.stats.tx_bytes += n as u64;
                    if last {
                        self.tx_remaining = None;
                        self.tx_pkts.pop_front();
                        self.stats.tx_packets += 1;
                    } else {
                        self.tx_remaining = Some(remaining - n as u32);
                    }
                }
            }
        }
        out
    }
}

impl firesim_core::snapshot::Snapshot for NicStats {
    fn save(&self, w: &mut firesim_core::snapshot::SnapshotWriter) {
        w.put_u64(self.tx_packets);
        w.put_u64(self.tx_bytes);
        w.put_u64(self.rx_packets);
        w.put_u64(self.rx_bytes);
        w.put_u64(self.rx_dropped);
    }
    fn load(r: &mut firesim_core::snapshot::SnapshotReader<'_>) -> firesim_core::SimResult<Self> {
        Ok(NicStats {
            tx_packets: r.get_u64()?,
            tx_bytes: r.get_u64()?,
            rx_packets: r.get_u64()?,
            rx_bytes: r.get_u64()?,
            rx_dropped: r.get_u64()?,
        })
    }
}

impl firesim_core::snapshot::Checkpoint for Nic {
    fn save_state(
        &self,
        w: &mut firesim_core::snapshot::SnapshotWriter,
    ) -> firesim_core::SimResult<()> {
        w.put(&self.mac);
        // The rate limiter is runtime-configurable (MMIO RATE_LIMIT), so
        // it is state, not construction config.
        w.put(&self.config.rate_k);
        w.put(&self.config.rate_p);
        w.put_seq(self.send_reqs.iter());
        w.put_seq(self.recv_reqs.iter());
        w.put_seq(self.send_comps.iter());
        w.put_seq(self.recv_comps.iter());
        w.put_u64(self.intr_mask);
        w.put_bool(self.reader.is_some());
        if let Some(rd) = &self.reader {
            w.put_u64(rd.addr);
            w.put_u32(rd.len);
            w.put_u64(rd.cursor);
            w.put_u64(rd.end);
        }
        w.put(&self.resbuf);
        w.put(&self.tx_pkts);
        w.put(&self.tx_remaining);
        w.put_i64(self.tokens);
        w.put_u64(self.cycle);
        w.put_bytes(&self.rx_cur);
        w.put_bool(self.rx_dropping);
        w.put(&self.rx_buffered);
        w.put_usize(self.rx_buffered_bytes);
        w.put_bool(self.writer.is_some());
        if let Some((pkt, cursor, addr)) = &self.writer {
            w.put_bytes(pkt);
            w.put_usize(*cursor);
            w.put_u64(*addr);
        }
        w.put(&self.stats);
        Ok(())
    }

    fn restore_state(
        &mut self,
        r: &mut firesim_core::snapshot::SnapshotReader<'_>,
    ) -> firesim_core::SimResult<()> {
        let mac: MacAddr = r.get()?;
        if mac != self.mac {
            return Err(firesim_core::SimError::checkpoint(format!(
                "NIC snapshot is for MAC {mac}, restoring onto {}",
                self.mac
            )));
        }
        self.config.rate_k = r.get()?;
        self.config.rate_p = r.get()?;
        self.send_reqs = r.get()?;
        self.queued_reads = self.queued_hull();
        self.recv_reqs = r.get()?;
        self.send_comps = r.get()?;
        self.recv_comps = r.get()?;
        self.intr_mask = r.get_u64()?;
        self.reader = if r.get_bool()? {
            Some(ReaderState {
                addr: r.get_u64()?,
                len: r.get_u32()?,
                cursor: r.get_u64()?,
                end: r.get_u64()?,
            })
        } else {
            None
        };
        self.resbuf = r.get()?;
        self.tx_pkts = r.get()?;
        self.tx_remaining = r.get()?;
        self.tokens = r.get_i64()?;
        self.cycle = r.get_u64()?;
        self.rx_cur = r.get_bytes()?.to_vec();
        self.rx_dropping = r.get_bool()?;
        self.rx_buffered = r.get()?;
        self.rx_buffered_bytes = r.get_usize()?;
        self.writer = if r.get_bool()? {
            let pkt = r.get_bytes()?.to_vec();
            Some((pkt, r.get_usize()?, r.get_u64()?))
        } else {
            None
        };
        self.stats = r.get()?;
        Ok(())
    }
}

impl MmioDevice for Nic {
    fn read(&mut self, offset: u64, _size: usize) -> u64 {
        match offset {
            reg::COUNTS => {
                let free_send = (self.config.queue_depth - self.send_reqs.len()) as u64;
                let free_recv = (self.config.queue_depth - self.recv_reqs.len()) as u64;
                let send_comps = self.send_comps.len() as u64;
                let recv_comps = self.recv_comps.len() as u64;
                free_send | (free_recv << 8) | (send_comps << 16) | (recv_comps << 24)
            }
            reg::SEND_COMP => self.send_comps.pop_front().unwrap_or_default(),
            reg::RECV_COMP => match self.recv_comps.pop_front() {
                // Length + 1 so that 0 unambiguously means "empty".
                Some(len) => u64::from(len) + 1,
                None => 0,
            },
            reg::INTR_MASK => self.intr_mask,
            reg::MACADDR => {
                let b = self.mac.0;
                u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], 0, 0])
            }
            reg::RATE_LIMIT => {
                u64::from(self.config.rate_k) | (u64::from(self.config.rate_p) << 16)
            }
            _ => 0,
        }
    }

    fn write(&mut self, offset: u64, _size: usize, value: u64) {
        match offset {
            reg::SEND_REQ if self.send_reqs.len() < self.config.queue_depth => {
                let addr = value & 0xffff_ffff_ffff;
                let len = ((value >> 48) & 0x7fff) as u32;
                if len > 0 {
                    self.send_reqs.push_back((addr, len));
                    self.queued_reads = hull(self.queued_reads.clone(), read_words(addr, len));
                }
            }
            reg::RECV_REQ if self.recv_reqs.len() < self.config.queue_depth => {
                self.recv_reqs.push_back(value);
            }
            reg::INTR_MASK => self.intr_mask = value & 0b11,
            reg::RATE_LIMIT => {
                self.set_rate_limit((value & 0xffff) as u16, ((value >> 16) & 0xffff) as u16);
            }
            _ => {}
        }
    }

    fn interrupt(&self) -> bool {
        (self.intr_mask & 0b01 != 0 && !self.send_comps.is_empty())
            || (self.intr_mask & 0b10 != 0 && !self.recv_comps.is_empty())
    }
}

/// The empty address range.
const EMPTY: Range<u64> = 0..0;

/// The smallest range covering `a` and `b`; empty ranges count for
/// nothing.
fn hull(a: Range<u64>, b: Range<u64>) -> Range<u64> {
    if b.is_empty() {
        a
    } else if a.is_empty() {
        b
    } else {
        a.start.min(b.start)..a.end.max(b.end)
    }
}

/// The aligned words the reader fetches for a packet of `len` bytes at
/// `addr`.
fn read_words(addr: u64, len: u32) -> Range<u64> {
    addr & !7..addr.saturating_add(u64::from(len) + 7) & !7
}

/// Packs a send request register value from a buffer address and length.
pub fn send_req(addr: u64, len: u32) -> u64 {
    (addr & 0xffff_ffff_ffff) | (u64::from(len & 0x7fff) << 48)
}

#[cfg(test)]
mod tests {
    use super::*;
    use firesim_riscv::DRAM_BASE;

    fn mk() -> (Nic, Memory) {
        let nic = Nic::new(MacAddr::from_node_index(1), NicConfig::default());
        let mem = Memory::new(DRAM_BASE, 1 << 20);
        (nic, mem)
    }

    fn drive_tx(nic: &mut Nic, mem: &mut Memory, cycles: usize) -> Vec<Flit> {
        let mut flits = Vec::new();
        for _ in 0..cycles {
            if let Some(f) = nic.tick(mem, None) {
                flits.push(f);
            }
        }
        flits
    }

    fn flits_to_bytes(flits: &[Flit]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in flits {
            out.extend_from_slice(&f.bytes()[..f.byte_len()]);
        }
        out
    }

    /// Seeded generator for the differential test below.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    fn nic_bytes(nic: &Nic) -> Vec<u8> {
        let mut w = firesim_core::snapshot::SnapshotWriter::new();
        firesim_core::snapshot::Checkpoint::save_state(nic, &mut w).unwrap();
        w.into_bytes()
    }

    /// Incoming packets of 1-40 bytes spread over `cycles` offsets from
    /// `start`, some back to back, some with gaps.
    fn rx_stream(rng: &mut Lcg, start: u32, cycles: u32) -> Vec<(u32, Flit)> {
        let mut flits = Vec::new();
        let mut off = start + rng.below(8) as u32;
        while off < start + cycles {
            let mut left = 1 + rng.below(40) as usize;
            while left > 0 && off < start + cycles {
                let n = left.min(8);
                left -= n;
                let bytes: Vec<u8> = (0..n).map(|_| rng.below(256) as u8).collect();
                flits.push((off, Flit::from_bytes(&bytes, left == 0)));
                off += 1 + rng.below(3) as u32 * rng.below(2) as u32;
            }
            off += rng.below(200) as u32;
        }
        flits
    }

    /// A NIC and its memory in a seed-chosen state: a rate config
    /// (unlimited included), a reservation or packet buffer small enough
    /// to backpressure or drop, queued sends of unaligned packets, posted
    /// receive buffers, and a random number of warm-up ticks with
    /// incoming traffic, which leave the reader, writer and transmitter
    /// part-way through packets.
    fn seeded_nic(seed: u64) -> (Nic, Memory, Lcg) {
        let mut rng = Lcg(seed);
        let (k, p) =
            [(0u16, 1u16), (1, 1), (1, 10), (3, 7), (8, 2), (5, 64)][rng.below(6) as usize];
        let config = NicConfig {
            resbuf_bytes: [4096, 64, 24][rng.below(3) as usize],
            pktbuf_bytes: [64 * 1024, 96][rng.below(2) as usize],
            rate_k: k,
            rate_p: p,
            ..NicConfig::default()
        };
        let mut nic = Nic::new(MacAddr::from_node_index(1), config);
        let mut mem = Memory::new(DRAM_BASE, 1 << 16);
        let fill: Vec<u8> = (0..1 << 16).map(|_| rng.below(256) as u8).collect();
        mem.write_bytes(DRAM_BASE, &fill).unwrap();
        if rng.below(4) == 0 {
            nic.write(reg::INTR_MASK, 8, 0b11);
        }
        for _ in 0..rng.below(5) {
            let addr = DRAM_BASE + 0x1000 + rng.below(0x2000);
            nic.write(reg::SEND_REQ, 8, send_req(addr, 1 + rng.below(1500) as u32));
        }
        for _ in 0..rng.below(4) {
            nic.write(reg::RECV_REQ, 8, DRAM_BASE + 0x8000 + rng.below(0x4000));
        }
        let warm = rng.below(300) as u32;
        let rx = rx_stream(&mut rng, 0, warm);
        let mut port = NicPort::default();
        port.start_window(rx);
        for _ in 0..warm {
            nic.exchange(&mut mem, &mut port);
        }
        (nic, mem, rng)
    }

    #[test]
    fn advance_matches_iterated_ticks() {
        // Per seeded state, `advance` over a window (in one call or in
        // random slices, zero-length ones included) must leave the NIC
        // and memory byte-identical to literally iterating `tick`, and
        // emit the same flits at the same offsets.
        let mut jumped = 0;
        for seed in 0..300u64 {
            let (mut a, mut mem_a, mut rng) = seeded_nic(seed);
            let (mut b, mut mem_b, _) = seeded_nic(seed);
            let cycles = [0u32, 1, 7, 64, 1000, 3000][rng.below(6) as usize];
            let rx = rx_stream(&mut rng, 0, cycles);

            let mut want = Vec::new();
            let mut next = 0;
            for off in 0..cycles {
                let flit = match rx.get(next) {
                    Some(&(o, f)) if o == off => {
                        next += 1;
                        Some(f)
                    }
                    _ => None,
                };
                if let Some(f) = a.tick(&mut mem_a, flit) {
                    want.push((off, f));
                }
            }

            let mut port = NicPort::default();
            port.start_window(rx);
            let ticks_before = b.cycle;
            if !b.is_quiescent() && b.idle_ticks(u64::from(cycles)) > 0 {
                jumped += 1;
            }
            while port.offset() < cycles {
                let left = cycles - port.offset();
                let slice = if rng.below(2) == 0 {
                    left
                } else {
                    (rng.below(u64::from(left) + 1) as u32).min(left)
                };
                b.advance(&mut mem_b, &mut port, slice);
            }
            b.advance(&mut mem_b, &mut port, 0);
            assert_eq!(b.cycle - ticks_before, u64::from(cycles), "seed {seed}");
            assert_eq!(port.tx, want, "seed {seed}: emitted flits differ");
            assert_eq!(
                nic_bytes(&a),
                nic_bytes(&b),
                "seed {seed}: NIC state differs"
            );
            assert_eq!(
                mem_a.read_bytes(DRAM_BASE, 1 << 16).unwrap(),
                mem_b.read_bytes(DRAM_BASE, 1 << 16).unwrap(),
                "seed {seed}: memory differs"
            );
        }
        assert!(jumped >= 10, "too few busy states start idle: {jumped}");
    }

    #[test]
    fn quiescence_predicate_tracks_activity() {
        let (mut nic, mut mem) = mk();
        assert!(nic.is_quiescent());
        let payload = [7u8; 16];
        mem.write_bytes(DRAM_BASE + 0x100, &payload).unwrap();
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x100, 16));
        assert!(!nic.is_quiescent(), "pending send request is activity");
        let _ = drive_tx(&mut nic, &mut mem, 40);
        assert!(nic.is_quiescent(), "drained NIC is quiescent again");
        // A posted receive buffer alone is quiescent (nothing to pair).
        nic.write(reg::RECV_REQ, 8, DRAM_BASE + 0x200);
        assert!(nic.is_quiescent());
    }

    #[test]
    fn transmits_aligned_packet() {
        let (mut nic, mut mem) = mk();
        let payload: Vec<u8> = (0..64u8).collect();
        mem.write_bytes(DRAM_BASE + 0x100, &payload).unwrap();
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x100, 64));
        let flits = drive_tx(&mut nic, &mut mem, 100);
        assert_eq!(flits.len(), 8);
        assert!(flits.last().unwrap().last);
        assert!(flits[..7].iter().all(|f| !f.last));
        assert_eq!(flits_to_bytes(&flits), payload);
        assert_eq!(nic.stats().tx_packets, 1);
        assert_eq!(nic.stats().tx_bytes, 64);
        // Send completion shows up.
        assert_eq!(nic.read(reg::SEND_COMP, 8), 1);
        assert_eq!(nic.read(reg::SEND_COMP, 8), 0);
    }

    #[test]
    fn transmits_unaligned_packet_via_aligner() {
        let (mut nic, mut mem) = mk();
        // Surround the packet with sentinel bytes that must NOT leak.
        let mut region = vec![0xEE; 64];
        for (i, b) in region.iter_mut().enumerate().skip(3).take(21) {
            *b = i as u8;
        }
        mem.write_bytes(DRAM_BASE + 0x200, &region).unwrap();
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x200 + 3, 21));
        let flits = drive_tx(&mut nic, &mut mem, 100);
        let bytes = flits_to_bytes(&flits);
        assert_eq!(bytes.len(), 21);
        assert_eq!(bytes, (3..24).map(|i| i as u8).collect::<Vec<_>>());
        assert!(!bytes.contains(&0xEE));
    }

    #[test]
    fn rate_limiter_halves_throughput() {
        let (mut nic, mut mem) = mk();
        let payload = vec![0xAB; 800]; // 100 flits
        mem.write_bytes(DRAM_BASE + 0x1000, &payload).unwrap();
        // k=1, p=2: one flit every other cycle, i.e. ~100 Gbit/s.
        nic.set_rate_limit(1, 2);
        // Drain the initial burst allowance first for a clean measurement.
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x1000, 800));
        let mut sent_at = Vec::new();
        let mut mem2 = mem;
        for cycle in 0..1000u64 {
            if nic.tick(&mut mem2, None).is_some() {
                sent_at.push(cycle);
            }
        }
        assert_eq!(sent_at.len(), 100);
        // Steady-state spacing is 2 cycles (ignore the initial burst).
        let tail = &sent_at[8..];
        let deltas: Vec<u64> = tail.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().all(|&d| d == 2), "{deltas:?}");
    }

    #[test]
    fn unlimited_rate_is_one_flit_per_cycle() {
        let (mut nic, mut mem) = mk();
        let payload = vec![0xCD; 160]; // 20 flits
        mem.write_bytes(DRAM_BASE + 0x1000, &payload).unwrap();
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x1000, 160));
        let mut sent_at = Vec::new();
        for cycle in 0..100u64 {
            if nic.tick(&mut mem, None).is_some() {
                sent_at.push(cycle);
            }
        }
        assert_eq!(sent_at.len(), 20);
        let deltas: Vec<u64> = sent_at.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().all(|&d| d == 1), "{deltas:?}");
    }

    #[test]
    fn receives_packet_into_posted_buffer() {
        let (mut nic, mut mem) = mk();
        nic.write(reg::RECV_REQ, 8, DRAM_BASE + 0x3000);
        let payload: Vec<u8> = (0..20u8).collect();
        // Feed 3 flits: 8 + 8 + 4 bytes.
        let f1 = Flit::from_bytes(&payload[0..8], false);
        let f2 = Flit::from_bytes(&payload[8..16], false);
        let f3 = Flit::from_bytes(&payload[16..20], true);
        nic.tick(&mut mem, Some(f1));
        nic.tick(&mut mem, Some(f2));
        nic.tick(&mut mem, Some(f3));
        // Writer needs a few cycles to drain.
        for _ in 0..10 {
            nic.tick(&mut mem, None);
        }
        assert_eq!(nic.read(reg::RECV_COMP, 8), 21); // len 20 + 1
        assert_eq!(
            mem.read_bytes(DRAM_BASE + 0x3000, 20).unwrap(),
            &payload[..]
        );
        assert_eq!(nic.stats().rx_packets, 1);
    }

    #[test]
    fn packet_buffer_overflow_drops_whole_packets() {
        let mut nic = Nic::new(
            MacAddr::from_node_index(1),
            NicConfig {
                pktbuf_bytes: 16,
                ..NicConfig::default()
            },
        );
        let mut mem = Memory::new(DRAM_BASE, 4096);
        // No recv requests posted: writer cannot drain. First packet (8B)
        // fits; second (16B) overflows and is dropped whole.
        nic.tick(&mut mem, Some(Flit::from_bytes(&[1; 8], true)));
        nic.tick(&mut mem, Some(Flit::from_bytes(&[2; 8], false)));
        nic.tick(&mut mem, Some(Flit::from_bytes(&[2; 8], true)));
        assert_eq!(nic.stats().rx_packets, 1);
        assert_eq!(nic.stats().rx_dropped, 1);
        // A third small packet still fits (8 bytes left).
        nic.tick(&mut mem, Some(Flit::from_bytes(&[3; 8], true)));
        assert_eq!(nic.stats().rx_packets, 2);
    }

    #[test]
    fn interrupts_follow_mask_and_completions() {
        let (mut nic, mut mem) = mk();
        assert!(!nic.interrupt());
        nic.write(reg::INTR_MASK, 8, 0b10);
        nic.write(reg::RECV_REQ, 8, DRAM_BASE + 0x3000);
        nic.tick(&mut mem, Some(Flit::from_bytes(&[7; 8], true)));
        for _ in 0..5 {
            nic.tick(&mut mem, None);
        }
        assert!(nic.interrupt());
        let _ = nic.read(reg::RECV_COMP, 8);
        assert!(!nic.interrupt());
    }

    #[test]
    fn counts_register_reflects_queues() {
        let (mut nic, _mem) = mk();
        let counts = nic.read(reg::COUNTS, 8);
        assert_eq!(counts & 0xff, 16);
        assert_eq!((counts >> 8) & 0xff, 16);
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE, 8));
        nic.write(reg::RECV_REQ, 8, DRAM_BASE);
        let counts = nic.read(reg::COUNTS, 8);
        assert_eq!(counts & 0xff, 15);
        assert_eq!((counts >> 8) & 0xff, 15);
    }

    #[test]
    fn mac_register_matches() {
        let (mut nic, _mem) = mk();
        let raw = nic.read(reg::MACADDR, 8);
        let b = raw.to_le_bytes();
        assert_eq!(MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]]), nic.mac());
    }

    #[test]
    fn back_to_back_packets_keep_boundaries() {
        let (mut nic, mut mem) = mk();
        mem.write_bytes(DRAM_BASE + 0x100, &[0x11; 12]).unwrap();
        mem.write_bytes(DRAM_BASE + 0x200, &[0x22; 12]).unwrap();
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x100, 12));
        nic.write(reg::SEND_REQ, 8, send_req(DRAM_BASE + 0x200, 12));
        let flits = drive_tx(&mut nic, &mut mem, 100);
        assert_eq!(flits.len(), 4); // 2 flits per 12-byte packet
        assert!(flits[1].last && flits[3].last);
        assert!(!flits[0].last && !flits[2].last);
        assert_eq!(flits[1].byte_len(), 4);
        assert_eq!(nic.stats().tx_packets, 2);
    }
}

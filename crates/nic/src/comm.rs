//! The communication system: all NICs plus the network fabric.

#![allow(clippy::field_reassign_with_default)]

use std::collections::{BTreeMap, VecDeque};

use genima_coll::{Action, CollId, CollState, ReduceOp};
use genima_net::{Fate, FaultInjector, NetConfig, Network, NicId};
use genima_obs::{
    flow_coll_id, flow_lock_id, op_barrier_id, Flow, FlowDir, ObsHandle, Recorder, SpanKind, Track,
};
use genima_sim::{Dur, InlineVec, Time};

use crate::config::NicConfig;
use crate::dedupe::SeenSeqs;
use crate::lock::{FwLock, LockId, SlotState};
use crate::model::{LanaiModel, NiModel, NiStats};
use crate::monitor::{Monitor, SizeClass, Stage};
use crate::msg::{CasWord, CollOp, Event, LockOp, MsgKind, Packet, SendDesc, Tag, Upcall};
use crate::trace::{LockChange, LockTrace};

/// Result of a host-side communication call: when the calling host
/// processor is free to continue, plus any simulation events to
/// schedule.
///
/// The event and upcall lists use inline storage ([`InlineVec`]): the
/// common case is one event per post, and fault injection multiplies
/// the number of posts without changing that per-post shape, so the
/// hot path allocates nothing.
#[derive(Debug, Default)]
pub struct Post {
    /// The instant the posting host processor regains control.
    pub host_free: Time,
    /// Internal events to schedule (feed back via [`Comm::handle`]).
    pub events: InlineVec<(Time, Event)>,
    /// Upcalls that became known immediately (e.g. a locally granted
    /// lock); delivered to the protocol layer at the given time.
    pub upcalls: InlineVec<(Time, Upcall)>,
}

/// A masked-CAS request whose compare failed while [`CasWord::wait`]
/// was set: the responder NIC holds it until the cell is written and
/// then replays it as if it had just arrived.
#[derive(Debug, Clone, Copy)]
struct CasWaiter {
    /// NIC awaiting the reply (may be the responder itself for a
    /// loopback CAS).
    src: NicId,
    cas: CasWord,
    tag: Tag,
}

/// Result of processing one internal event.
#[derive(Debug, Default)]
pub struct Step {
    /// Follow-up internal events to schedule.
    pub events: InlineVec<(Time, Event)>,
    /// Completion notifications for the protocol layer.
    pub upcalls: InlineVec<(Time, Upcall)>,
}

/// Counters of the firmware's loss-recovery machinery. All zero on the
/// clean path (no fault injector installed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Packets retransmitted after a retry timer fired.
    pub retransmits: u64,
    /// Arrived packets discarded as duplicates of an already-processed
    /// sequence number.
    pub duplicates_suppressed: u64,
    /// Sends abandoned after exhausting every attempt
    /// ([`Upcall::PeerUnreachable`] surfaced).
    pub unreachable: u64,
    /// Untagged control packets handed to the out-of-band management
    /// channel after exhausting every attempt (degraded mode only).
    pub mgmt_deliveries: u64,
}

/// Small on-wire sizes (bytes) for firmware-generated control packets.
const LOCK_REQ_BYTES: u32 = 16;
const FETCH_REQ_BYTES: u32 = 16;
/// Header bytes of a collective fan-in / fan-out packet; the reduce
/// payload adds 8 bytes per element on top.
const COLL_HDR_BYTES: u32 = 16;
/// Cost of a firmware-local handoff when source and destination NIC
/// coincide (e.g. the home forwarding a lock transfer to itself).
const LOCAL_HOP: Dur = Dur::from_ns(200);

/// The cluster-wide communication system: one NI per node plus the
/// switch fabric, the firmware lock tables, and the performance
/// monitor.
///
/// The system is a passive state machine driven by the simulation
/// core: host-side calls ([`Comm::post_send`], [`Comm::fetch`],
/// [`Comm::lock_acquire`], [`Comm::lock_release`]) return events to
/// schedule, and [`Comm::handle`] processes them when they fire,
/// producing follow-up events and protocol [`Upcall`]s.
///
/// # Example
///
/// ```
/// use genima_net::{NetConfig, NicId};
/// use genima_nic::{Comm, MsgKind, NicConfig, SendDesc, Tag};
/// use genima_sim::Time;
///
/// let mut comm = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
/// let post = comm.post_send(
///     Time::ZERO,
///     NicId::new(0),
///     SendDesc { dst: NicId::new(1), bytes: 64, kind: MsgKind::Deposit, tag: Tag::new(1) },
/// );
/// assert_eq!(post.host_free.as_us(), 2.0); // asynchronous: 2us post overhead
/// assert_eq!(post.events.len(), 1);        // a future delivery event
/// ```
#[derive(Debug)]
pub struct Comm {
    cfg: NicConfig,
    net: Network,
    /// The NI hardware timing model (engine occupancies, queue
    /// disciplines, DMA and notification costs). The protocol state
    /// machines below are hardware-independent.
    model: Box<dyn NiModel>,
    /// Number of nodes/NICs in the cluster.
    ports: usize,
    locks: Vec<FwLock>,
    /// Firmware collective instances (tree barrier / all-reduce
    /// combine tables), created lazily on first entry.
    colls: BTreeMap<CollId, CollState>,
    /// Tree fanout for collective instances created from now on.
    coll_fanout: u32,
    /// Firmware word arrays used by remote atomic operations, one per
    /// NIC (lazily grown).
    atomic_cells: Vec<Vec<u64>>,
    /// Masked-CAS requests parked at each NIC ([`CasWord::wait`]),
    /// keyed by cell and replayed FIFO when the cell is written.
    cas_waiters: Vec<BTreeMap<u32, VecDeque<CasWaiter>>>,
    monitor: Monitor,
    /// Lock-ownership transitions, recorded only while tracing is on
    /// (`None` = disabled, the default: zero overhead).
    trace: Option<Vec<LockTrace>>,
    /// Fault injector deciding each packet's fate (`None` = the clean
    /// path: no sequencing, no timers, bit-identical to a build
    /// without fault support).
    injector: Option<Box<dyn FaultInjector>>,
    /// Next sequence number per `(src, dst)` channel (indexed
    /// `src * ports + dst`); allocated only when an injector is
    /// installed.
    seq_next: Vec<u64>,
    /// Sequence numbers already processed at each destination, per
    /// channel — the home-side duplicate-suppression table.
    seen: Vec<SeenSeqs>,
    /// Loss-recovery counters.
    recovery: RecoveryStats,
    /// Reusable buffer for collective state-machine actions (the
    /// firmware emits at most a handful per serviced packet; reusing
    /// one buffer keeps the service loop allocation-free).
    coll_scratch: Vec<Action>,
    /// Observability recorder for firmware-side spans (`None` =
    /// disabled, the default: a single branch per emission site).
    obs: Option<ObsHandle>,
    /// Degraded-mode retransmission policy: when a send to a peer
    /// exhausts every attempt, *untagged* firmware control traffic
    /// (collective fan-in/fan-out, timestamp prefetches) is delivered
    /// over a modeled out-of-band management channel instead of
    /// surfacing [`Upcall::PeerUnreachable`]. Tagged packets still
    /// surface, so the protocol layer can fail the owning transaction.
    degraded: bool,
}

impl Comm {
    /// Creates a communication system for `ports` nodes and `nlocks`
    /// NI locks (homes assigned round-robin).
    pub fn new(cfg: NicConfig, net_cfg: NetConfig, ports: usize, nlocks: usize) -> Comm {
        let model = Box::new(LanaiModel::new(cfg, ports));
        Comm::with_model(model, cfg, net_cfg, ports, nlocks)
    }

    /// Creates a communication system running the protocol against an
    /// explicit NI hardware model. `cfg` carries the
    /// hardware-independent knobs the protocol still consults
    /// (capability flags, size threshold, retry policy); all timing
    /// lives in `model`.
    pub fn with_model(
        model: Box<dyn NiModel>,
        cfg: NicConfig,
        net_cfg: NetConfig,
        ports: usize,
        nlocks: usize,
    ) -> Comm {
        let net = Network::new(net_cfg, ports);
        Comm {
            model,
            ports,
            locks: (0..nlocks)
                .map(|i| FwLock::new(NicId::new(i % ports), ports))
                .collect(),
            colls: BTreeMap::new(),
            coll_fanout: 4,
            atomic_cells: (0..ports).map(|_| Vec::new()).collect(),
            cas_waiters: (0..ports).map(|_| BTreeMap::new()).collect(),
            monitor: Monitor::new(),
            trace: None,
            injector: None,
            seq_next: Vec::new(),
            seen: Vec::new(),
            recovery: RecoveryStats::default(),
            coll_scratch: Vec::new(),
            obs: None,
            degraded: false,
            cfg,
            net,
        }
    }

    /// Hardware-mechanism counters of the underlying NI model
    /// (doorbells, completion-queue entries, paging faults; all zero
    /// on hardware without those mechanisms).
    pub fn ni_stats(&self) -> NiStats {
        self.model.stats()
    }

    /// Installs an observability recorder: firmware service spans,
    /// retransmissions, fault-injection instants and lock-grant flows
    /// are recorded from now on. Without a recorder every emission site
    /// is a single `Option` branch.
    pub fn set_observer(&mut self, obs: ObsHandle) {
        self.obs = Some(obs);
    }

    fn obs_record(&mut self, f: impl FnOnce(&mut Recorder)) {
        if let Some(h) = self.obs.as_ref() {
            f(&mut h.borrow_mut());
        }
    }

    /// The protocol operation bound to `tag` in the shared recorder
    /// (zero when unbound or observability is off). Tags are globally
    /// unique, so the binding made at the posting node resolves at any
    /// NIC the packet visits.
    fn obs_op(&self, tag: Tag) -> u64 {
        match self.obs.as_ref() {
            Some(h) => h.borrow().op_for(tag.value()),
            None => 0,
        }
    }

    /// Installs a fault injector: from now on every wire packet is
    /// sequenced, its fate (deliver / delay / duplicate / drop) is
    /// decided by `injector` at injection time, dropped packets are
    /// retransmitted with exponential backoff, and duplicates are
    /// suppressed at the destination.
    ///
    /// An injector that never faults (e.g. `FaultPlan::none()`)
    /// produces timings and reports identical to the clean path.
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        let ports = self.ports;
        self.injector = Some(injector);
        self.seq_next = vec![0; ports * ports];
        self.seen = vec![SeenSeqs::default(); ports * ports];
    }

    /// Returns `true` when a fault injector is installed.
    pub fn fault_injection_enabled(&self) -> bool {
        self.injector.is_some()
    }

    /// Enables or disables the degraded-mode retransmission policy
    /// (see the `degraded` field).
    pub fn set_degraded(&mut self, on: bool) {
        self.degraded = on;
    }

    /// The firmware's loss-recovery counters (all zero without faults).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Turns lock-ownership tracing on or off. Turning it on clears
    /// any previously recorded events.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Drains the recorded lock-ownership trace (empty when tracing
    /// was never enabled).
    pub fn take_lock_trace(&mut self) -> Vec<LockTrace> {
        match self.trace.as_mut() {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    fn trace_lock(&mut self, at: Time, nic: NicId, lock: LockId, change: LockChange) {
        if let Some(t) = self.trace.as_mut() {
            t.push(LockTrace {
                at,
                nic,
                lock,
                change,
            });
        }
    }

    /// The NI timing parameters in use.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// The network fabric (read-only; useful for link statistics).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The firmware performance monitor, aggregated over all NICs.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Clears the performance monitor (used when measurement starts
    /// after a warmup phase, per the paper's methodology).
    pub fn reset_monitor(&mut self) {
        self.monitor = Monitor::new();
    }

    /// The home NIC of `lock`.
    ///
    /// # Panics
    ///
    /// Panics if `lock` is out of range.
    pub fn lock_home(&self, lock: LockId) -> NicId {
        self.locks[lock.index()].home
    }

    /// Number of NI locks configured.
    pub fn lock_count(&self) -> usize {
        self.locks.len()
    }

    fn size_class(&self, bytes: u32) -> SizeClass {
        if bytes <= self.cfg.small_threshold {
            SizeClass::Small
        } else {
            SizeClass::Large
        }
    }

    /// Posts one asynchronous send descriptor from `src`.
    ///
    /// Models the full outgoing pipeline synchronously (post queue →
    /// LANai pick → source DMA → injection → fabric) and returns the
    /// delivery event. The posting processor is released after the
    /// post overhead unless the post queue is full, in which case it
    /// stalls until a slot frees.
    ///
    /// # Panics
    ///
    /// Panics if `desc.dst == src` (intra-node traffic never reaches
    /// the NI) or if `desc.bytes` exceeds the maximum packet size.
    pub fn post_send(&mut self, now: Time, src: NicId, desc: SendDesc) -> Post {
        assert_ne!(src, desc.dst, "intra-node messages do not use the NI");
        let mut post = Post::default();
        let hp = self.model.host_post(now, src);
        post.host_free = hp.posted_at;
        if hp.doorbell {
            let op = self.obs_op(desc.tag);
            self.obs_record(|o| {
                o.instant_op(
                    SpanKind::QpDoorbell,
                    src.index(),
                    Track::Host,
                    hp.posted_at,
                    desc.dst.index() as u64,
                    op,
                );
            });
        }
        self.send_pipeline(hp.posted_at, src, desc, true, &mut post.events);
        post
    }

    /// Posts one descriptor that the NI firmware replicates to several
    /// destinations (the §5 broadcast extension): one post-queue slot,
    /// one source DMA, one injection per destination.
    ///
    /// # Panics
    ///
    /// Panics unless `NicConfig::broadcast` is enabled, or if any
    /// destination equals `src`, or `dsts` is empty.
    pub fn post_broadcast(
        &mut self,
        now: Time,
        src: NicId,
        dsts: &[(NicId, Tag)],
        bytes: u32,
        kind: MsgKind,
    ) -> Post {
        assert!(self.cfg.broadcast, "broadcast without NicConfig::broadcast");
        assert!(!dsts.is_empty(), "broadcast needs at least one destination");
        let mut post = Post::default();
        let hp = self.model.host_post(now, src);
        let posted_at = hp.posted_at;
        post.host_free = posted_at;

        let (dma_done, source_expected) = self.model.bcast_source(posted_at, src, bytes);
        let class = self.size_class(bytes);
        self.monitor
            .record(Stage::Source, class, dma_done - posted_at, source_expected);
        let mut cursor = dma_done;
        for &(dst, tag) in dsts {
            assert_ne!(dst, src, "broadcast to self");
            let inject_ready = self.model.bcast_inject(cursor, src);
            cursor = inject_ready;
            let pkt = Packet {
                src,
                dst,
                bytes,
                kind,
                tag,
                seq: 0,
                posted_ns: posted_at.as_ns(),
                source_done_ns: dma_done.as_ns(),
            };
            let timing = self.inject_packet(inject_ready, pkt, 0, &mut post.events);
            let wire = self.net.config().wire_time(bytes);
            self.monitor.record(
                Stage::Lanai,
                class,
                timing.inject_end.saturating_since(dma_done),
                self.model.inject_cost() + wire,
            );
            self.monitor.record(
                Stage::Net,
                class,
                timing.deliver.saturating_since(dma_done),
                self.model.inject_cost() + self.net.uncontended(bytes),
            );
            self.monitor.count_packet(class, bytes);
        }
        post
    }

    /// Issues a remote fetch: `bytes` of exported memory at `from`
    /// are DMA'd out of the remote host by its NI firmware and
    /// deposited into `nic`'s host memory. Completion surfaces as
    /// [`Upcall::FetchCompleted`] with `tag`. `key` names the fetched
    /// region for the remote NI's translation machinery (a page index,
    /// or [`crate::ALWAYS_MAPPED`] for NI-resident metadata);
    /// on-demand-paging hardware faults on a key's first use.
    ///
    /// # Panics
    ///
    /// Panics if `from == nic`.
    pub fn fetch(
        &mut self,
        now: Time,
        nic: NicId,
        from: NicId,
        bytes: u32,
        key: u64,
        tag: Tag,
    ) -> Post {
        assert_ne!(nic, from, "local memory is read directly, not fetched");
        self.post_send(
            now,
            nic,
            SendDesc {
                dst: from,
                bytes: FETCH_REQ_BYTES,
                kind: MsgKind::FetchReq {
                    reply_bytes: bytes,
                    key,
                },
                tag,
            },
        )
    }

    /// Issues a remote atomic fetch-and-store on firmware word `cell`
    /// at `target`; the previous value surfaces as
    /// [`Upcall::AtomicCompleted`] with `tag`. The operation is served
    /// entirely in the target's NI firmware, like a remote fetch —
    /// §2's "remote atomic operations" alternative. A `target == src`
    /// swap executes locally in the NIC without network traffic.
    pub fn fetch_and_store(
        &mut self,
        now: Time,
        src: NicId,
        target: NicId,
        cell: u32,
        new: u64,
        tag: Tag,
    ) -> Post {
        if src == target {
            // Local firmware op: no wire.
            let mut post = Post::default();
            post.host_free = self.model.host_ctrl(now, src);
            let done = self.model.sync_service(post.host_free, src, true);
            let old = self.atomic_swap(target, cell, new);
            post.upcalls.push((
                done + self.model.notify(),
                Upcall::AtomicCompleted { nic: src, tag, old },
            ));
            let mut sub = Step::default();
            self.replay_cas_waiters(done, target, cell, &mut sub);
            post.events.extend(sub.events);
            post.upcalls.extend(sub.upcalls);
            return post;
        }
        self.post_send(
            now,
            src,
            SendDesc {
                dst: target,
                bytes: 16,
                kind: MsgKind::FetchAndStore { cell, new },
                tag,
            },
        )
    }

    /// Issues a remote masked compare-and-swap on firmware word
    /// `cas.cell` at `target` (the RDMA verbs NI-lock primitive); the
    /// previous value surfaces as [`Upcall::AtomicCompleted`] with
    /// `tag`. A `target == src` operation executes locally in the NIC
    /// without network traffic, like [`Comm::fetch_and_store`].
    pub fn masked_cas(
        &mut self,
        now: Time,
        src: NicId,
        target: NicId,
        cas: CasWord,
        tag: Tag,
    ) -> Post {
        if src == target {
            let mut post = Post::default();
            post.host_free = self.model.host_ctrl(now, src);
            let done = self.model.sync_service(post.host_free, src, true);
            let (old, wrote) = self.atomic_cas(target, cas);
            if cas.wait && !wrote {
                // Parked in the local NIC; the completion surfaces
                // when the cell is written.
                self.park_cas(target, src, cas, tag);
                return post;
            }
            post.upcalls.push((
                done + self.model.notify(),
                Upcall::AtomicCompleted { nic: src, tag, old },
            ));
            if wrote {
                let mut sub = Step::default();
                self.replay_cas_waiters(done, target, cas.cell, &mut sub);
                post.events.extend(sub.events);
                post.upcalls.extend(sub.upcalls);
            }
            return post;
        }
        self.post_send(
            now,
            src,
            SendDesc {
                dst: target,
                bytes: 16,
                kind: MsgKind::MaskedCas(cas),
                tag,
            },
        )
    }

    fn atomic_cell(&mut self, nic: NicId, cell: u32) -> &mut u64 {
        let cells = &mut self.atomic_cells[nic.index()];
        if cells.len() <= cell as usize {
            cells.resize(cell as usize + 1, 0);
        }
        &mut cells[cell as usize]
    }

    fn atomic_swap(&mut self, nic: NicId, cell: u32, new: u64) -> u64 {
        std::mem::replace(self.atomic_cell(nic, cell), new)
    }

    /// Executes a masked CAS against the firmware word, returning the
    /// previous value and whether the swap was performed.
    fn atomic_cas(&mut self, nic: NicId, cas: CasWord) -> (u64, bool) {
        let word = self.atomic_cell(nic, cas.cell);
        let old = *word;
        let hit = (old ^ cas.expect) & cas.mask == 0;
        if hit {
            *word = (old & !cas.mask) | (cas.new & cas.mask);
        }
        (old, hit)
    }

    /// Parks a failed `wait`-mode CAS at the responder; it replays
    /// when the cell is next written.
    fn park_cas(&mut self, nic: NicId, src: NicId, cas: CasWord, tag: Tag) {
        self.cas_waiters[nic.index()]
            .entry(cas.cell)
            .or_default()
            .push_back(CasWaiter { src, cas, tag });
    }

    /// Replays the cell's parked CAS requests after a write, FIFO: the
    /// head re-executes through the atomic unit like a fresh arrival
    /// and its reply goes out on success; replay continues while heads
    /// keep succeeding (each success writes the cell in turn) and
    /// stops at the first compare that still fails. This is what makes
    /// `wait`-mode lock handoff event-driven — no requester ever has
    /// to poll a cell it already lost.
    fn replay_cas_waiters(&mut self, now: Time, nic: NicId, cell: u32, step: &mut Step) {
        let mut t = now;
        loop {
            let head = match self.cas_waiters[nic.index()].get(&cell) {
                Some(q) => q.front().copied(),
                None => return,
            };
            let Some(w) = head else {
                self.cas_waiters[nic.index()].remove(&cell);
                return;
            };
            let (old, wrote) = self.atomic_cas(nic, w.cas);
            if !wrote {
                return; // Head still blocked; FIFO order holds the rest.
            }
            if let Some(q) = self.cas_waiters[nic.index()].get_mut(&cell) {
                q.pop_front();
            }
            t = self.model.sync_service(t, nic, false);
            if w.src == nic {
                step.upcalls.push((
                    t + self.model.notify(),
                    Upcall::AtomicCompleted {
                        nic,
                        tag: w.tag,
                        old,
                    },
                ));
            } else {
                let (_, sub) = self.fw_send(t, nic, w.src, 16, MsgKind::AtomicReply { old }, w.tag);
                step.events.extend(sub.events);
                step.upcalls.extend(sub.upcalls);
            }
        }
    }

    /// Requests an NI lock. The grant surfaces as
    /// [`Upcall::LockGranted`] with `tag`; if this NIC still owns the
    /// lock the grant is local and fast.
    ///
    /// # Panics
    ///
    /// Panics if this NIC already holds or awaits the lock — the
    /// protocol layer must serialise per-node lock requests.
    pub fn lock_acquire(&mut self, now: Time, nic: NicId, lock: LockId, tag: Tag) -> Post {
        let slot_state = self.locks[lock.index()].slots[nic.index()].state;
        assert!(
            matches!(slot_state, SlotState::Idle | SlotState::Released),
            "nic {nic} re-requested {lock} while in {slot_state:?}"
        );
        let mut post = Post::default();
        post.host_free = self.model.host_ctrl(now, nic);
        if slot_state == SlotState::Released {
            // "The last owner keeps the lock": this NIC still owns it,
            // so the firmware re-grants locally without any messages.
            self.locks[lock.index()].slots[nic.index()].state = SlotState::HeldLocal;
            let at = post.host_free + self.model.sync_cost() + self.model.notify();
            post.upcalls
                .push((at, Upcall::LockGranted { nic, lock, tag }));
            return post;
        }
        self.locks[lock.index()].slots[nic.index()].state = SlotState::AwaitingGrant;
        let home = self.locks[lock.index()].home;
        let (s, step) = self.fw_send(
            post.host_free,
            nic,
            home,
            LOCK_REQ_BYTES,
            MsgKind::LockMsg(LockOp::Request {
                lock,
                requester: nic,
            }),
            tag,
        );
        let _ = s;
        post.events = step.events;
        post.upcalls = step.upcalls;
        post
    }

    /// Re-marks a lock this NIC kept after a release ("the last owner
    /// keeps the lock") as held by the local host again — the fast
    /// local re-acquire path. Purely NI-local; no messages.
    ///
    /// # Panics
    ///
    /// Panics if the NIC does not own the lock in released state.
    pub fn lock_local_hold(&mut self, now: Time, nic: NicId, lock: LockId) -> Post {
        let slot = &mut self.locks[lock.index()].slots[nic.index()];
        assert_eq!(
            slot.state,
            SlotState::Released,
            "nic {nic} cannot locally re-hold {lock}"
        );
        slot.state = SlotState::HeldLocal;
        let mut post = Post::default();
        post.host_free = now + self.model.sync_cost();
        post
    }

    /// Releases an NI lock held by `nic`'s host. If a successor is
    /// queued the firmware hands the lock over immediately and a
    /// [`Upcall::LockDeparted`] is produced.
    ///
    /// # Panics
    ///
    /// Panics if the host does not hold the lock.
    pub fn lock_release(&mut self, now: Time, nic: NicId, lock: LockId) -> Post {
        let mut post = Post::default();
        post.host_free = self.model.host_ctrl(now, nic);
        let done = self.model.sync_service(post.host_free, nic, true);
        let slot = &mut self.locks[lock.index()].slots[nic.index()];
        assert_eq!(
            slot.state,
            SlotState::HeldLocal,
            "nic {nic} released {lock} it does not hold"
        );
        if let Some((successor, wtag)) = slot.next.take() {
            slot.state = SlotState::Idle;
            self.trace_lock(done, nic, lock, LockChange::Released);
            post.upcalls
                .push((done, Upcall::LockDeparted { nic, lock }));
            let grant_bytes = self.cfg.lock_grant_bytes;
            let (_, step) = self.fw_send(
                done,
                nic,
                successor,
                grant_bytes,
                MsgKind::LockMsg(LockOp::Grant { lock, tag: wtag }),
                wtag,
            );
            post.events.extend(step.events);
            post.upcalls.extend(step.upcalls);
        } else {
            slot.state = SlotState::Released;
        }
        post
    }

    /// Sets the tree fanout used by collective instances created from
    /// now on (existing instances keep their shape).
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero.
    pub fn set_coll_fanout(&mut self, fanout: u32) {
        assert!(fanout >= 1, "tree fanout must be at least 1");
        self.coll_fanout = fanout;
    }

    /// The epoch `nic`'s next entry into `coll` will join (zero before
    /// the instance exists).
    pub fn coll_epoch(&self, coll: CollId, nic: NicId) -> u32 {
        match self.colls.get(&coll) {
            Some(cs) => cs.node_epoch(nic.index() as u32),
            None => 0,
        }
    }

    /// The combined result of `coll`'s most recently completed epoch.
    /// Valid to read from the moment [`Upcall::CollCompleted`] for
    /// that epoch surfaces at a node until the node re-enters the
    /// collective — the same window in which a granted lock's
    /// timestamp sits in NI memory.
    pub fn coll_result(&self, coll: CollId) -> Option<(u32, &[u64])> {
        self.colls
            .get(&coll)
            .and_then(|cs| cs.result())
            .map(|(e, vals)| (*e, vals.as_slice()))
    }

    /// Enters collective `coll` at `nic`: the host writes its local
    /// contribution (`vals`, element-wise combined with `op`; empty
    /// for a pure barrier) into NI memory and returns immediately —
    /// the whole fan-in/combine/fan-out runs in firmware, and
    /// completion surfaces as [`Upcall::CollCompleted`], noticed like
    /// a granted lock flag. The first entry cluster-wide fixes the
    /// instance's operator, element width and tree fanout (see
    /// [`Comm::set_coll_fanout`]).
    ///
    /// # Panics
    ///
    /// Panics if the node re-enters before its previous epoch
    /// completed, or if `vals`' width disagrees with the instance.
    pub fn coll_enter(
        &mut self,
        now: Time,
        nic: NicId,
        coll: CollId,
        op: ReduceOp,
        vals: &[u64],
    ) -> Post {
        let ports = self.ports;
        let fanout = self.coll_fanout;
        self.colls
            .entry(coll)
            .or_insert_with(|| CollState::new(ports as u32, fanout, op, vals.len()));
        let mut post = Post::default();
        post.host_free = self.model.host_ctrl(now, nic);
        // The epoch this entry joins names the barrier operation; the
        // protocol layer derives the same id at release time.
        let entry_epoch = self.coll_epoch(coll, nic);
        // The firmware folds the local contribution into its combine
        // table on the send-side service loop.
        let svc_done = self.model.coll_service(post.host_free, nic, true);
        let mut actions = std::mem::take(&mut self.coll_scratch);
        self.colls
            .get_mut(&coll)
            .expect("instance created above")
            .local_arrive_into(nic.index() as u32, vals, &mut actions);
        let host_free = post.host_free;
        let bop = op_barrier_id(coll.index() as u64, entry_epoch as u64);
        self.obs_record(|o| {
            o.span_op(
                SpanKind::CollCombine,
                nic.index(),
                Track::Firmware,
                host_free,
                svc_done,
                coll.index() as u64,
                bop,
            );
        });
        let mut step = Step::default();
        self.apply_coll_actions(svc_done, coll, &actions, &mut step);
        actions.clear();
        self.coll_scratch = actions;
        post.events = step.events;
        post.upcalls = step.upcalls;
        post
    }

    /// Root-initiated collective broadcast: the root's host posts
    /// `vals` and the firmware fans it out down the tree; every node
    /// (root included) observes [`Upcall::CollCompleted`] and reads
    /// the payload with [`Comm::coll_result`]. The fan-out stage of
    /// the barrier machinery running standalone.
    ///
    /// # Panics
    ///
    /// Panics if `nic` is not the tree root (node 0), or on width
    /// mismatch with an existing instance.
    pub fn coll_broadcast(&mut self, now: Time, nic: NicId, coll: CollId, vals: &[u64]) -> Post {
        assert_eq!(
            nic.index(),
            0,
            "collective broadcasts start at the tree root"
        );
        let ports = self.ports;
        let fanout = self.coll_fanout;
        self.colls
            .entry(coll)
            .or_insert_with(|| CollState::new(ports as u32, fanout, ReduceOp::Max, vals.len()));
        let mut post = Post::default();
        post.host_free = self.model.host_ctrl(now, nic);
        let svc_done = self.model.coll_service(post.host_free, nic, true);
        let mut actions = std::mem::take(&mut self.coll_scratch);
        self.colls
            .get_mut(&coll)
            .expect("instance created above")
            .broadcast_into(vals, &mut actions);
        let mut step = Step::default();
        self.apply_coll_actions(svc_done, coll, &actions, &mut step);
        actions.clear();
        self.coll_scratch = actions;
        post.events = step.events;
        post.upcalls = step.upcalls;
        post
    }

    /// Returns `true` if `nic` currently owns `lock` (held or
    /// released-but-kept), i.e. a local host-level handoff is legal.
    pub fn lock_owned_by(&self, nic: NicId, lock: LockId) -> bool {
        matches!(
            self.locks[lock.index()].slots[nic.index()].state,
            SlotState::HeldLocal | SlotState::Released
        )
    }

    /// Processes one internal event at its scheduled time.
    pub fn handle(&mut self, now: Time, ev: Event) -> Step {
        match ev {
            Event::Delivered(pkt) => self.deliver(now, pkt),
            Event::RetryTimer { packet, attempt } => self.retransmit(now, packet, attempt),
        }
    }

    // ----- internal helpers -------------------------------------------------

    /// Runs the outgoing pipeline for one packet, pushing the resulting
    /// events (delivery, or a retransmission timer under fault
    /// injection) into `out`. `from_post_queue` distinguishes
    /// host-posted packets (which occupy a post-queue slot and are
    /// monitored in the Source stage) from firmware-generated ones.
    fn send_pipeline(
        &mut self,
        posted_at: Time,
        src: NicId,
        desc: SendDesc,
        from_post_queue: bool,
        out: &mut InlineVec<(Time, Event)>,
    ) {
        let class = self.size_class(desc.bytes);

        // A scatter-gather send spends extra source-side time
        // collecting each run from host memory.
        let gather_runs = match desc.kind {
            MsgKind::GatherDeposit { runs } => {
                assert!(
                    self.cfg.scatter_gather,
                    "scatter-gather send without NicConfig::scatter_gather"
                );
                Some(runs)
            }
            MsgKind::Deposit
            | MsgKind::HostMsg
            | MsgKind::FetchReq { .. }
            | MsgKind::FetchReply
            | MsgKind::LockMsg(_)
            | MsgKind::CollMsg(_)
            | MsgKind::FetchAndStore { .. }
            | MsgKind::MaskedCas(_)
            | MsgKind::AtomicReply { .. } => None,
        };
        let times = self
            .model
            .send_path(posted_at, src, desc.bytes, gather_runs, from_post_queue);
        let dma_done = times.dma_done;
        // Injection into the fabric.
        let pkt = Packet {
            src,
            dst: desc.dst,
            bytes: desc.bytes,
            kind: desc.kind,
            tag: desc.tag,
            seq: 0,
            posted_ns: posted_at.as_ns(),
            source_done_ns: dma_done.as_ns(),
        };
        let timing = self.inject_packet(times.inject_ready, pkt, 0, out);

        // Monitor: Source / LANai / Net stages (paper §3.1 definitions).
        let wire = self.net.config().wire_time(desc.bytes);
        if from_post_queue {
            self.monitor.record(
                Stage::Source,
                class,
                dma_done - posted_at,
                times.source_expected,
            );
        }
        self.monitor.record(
            Stage::Lanai,
            class,
            timing.inject_end.saturating_since(dma_done),
            self.model.inject_cost() + wire,
        );
        self.monitor.record(
            Stage::Net,
            class,
            timing.deliver.saturating_since(dma_done),
            self.model.inject_cost() + self.net.uncontended(desc.bytes),
        );
        self.monitor.count_packet(class, desc.bytes);
    }

    /// Hands one wire packet to the fabric. Without an injector this is
    /// exactly the historical behaviour: one [`Event::Delivered`] at
    /// the wire-accurate delivery time. With an injector the packet is
    /// sequenced on its channel and its fate applied: extra delay is
    /// added *after* the fabric's in-order clamp (genuine reordering),
    /// a duplicate schedules two deliveries, and a drop schedules an
    /// [`Event::RetryTimer`] one backed-off timeout after the send.
    fn inject_packet(
        &mut self,
        inject_ready: Time,
        mut pkt: Packet,
        attempt: u32,
        out: &mut InlineVec<(Time, Event)>,
    ) -> genima_net::NetTiming {
        debug_assert_ne!(pkt.src, pkt.dst, "local hops never enter the fabric");
        let (src_idx, dst_idx) = (pkt.src.index(), pkt.dst.index() as u64);
        let (timing, injected_fault) = match self.injector.as_mut() {
            None => {
                let timing = self.net.transfer(inject_ready, pkt.src, pkt.dst, pkt.bytes);
                out.push((timing.deliver, Event::Delivered(pkt)));
                (timing, None)
            }
            Some(inj) => {
                if pkt.seq == 0 {
                    let chan = pkt.src.index() * self.ports + pkt.dst.index();
                    self.seq_next[chan] += 1;
                    pkt.seq = self.seq_next[chan];
                }
                let ctx = genima_net::PacketCtx {
                    src: pkt.src,
                    dst: pkt.dst,
                    bytes: pkt.bytes,
                    seq: pkt.seq,
                    attempt,
                    now: inject_ready,
                };
                let (timing, fate) = self.net.transfer_with(ctx, inj.as_mut());
                let injected_fault = match fate {
                    Fate::Deliver { extra } => {
                        out.push((timing.deliver + extra, Event::Delivered(pkt)));
                        if extra > Dur::ZERO {
                            Some(SpanKind::FaultDelay)
                        } else {
                            None
                        }
                    }
                    Fate::Duplicate { extra, second } => {
                        out.push((timing.deliver + extra, Event::Delivered(pkt)));
                        out.push((timing.deliver + extra + second, Event::Delivered(pkt)));
                        Some(SpanKind::FaultDup)
                    }
                    Fate::Drop => {
                        let rto = self.cfg.retry_timeout * (1u64 << attempt.min(10));
                        out.push((
                            timing.inject_end + rto,
                            Event::RetryTimer {
                                packet: pkt,
                                attempt: attempt + 1,
                            },
                        ));
                        Some(SpanKind::FaultDrop)
                    }
                };
                (timing, injected_fault)
            }
        };
        if let Some(kind) = injected_fault {
            let op = self.obs_op(pkt.tag);
            self.obs_record(|o| {
                o.instant_op(kind, src_idx, Track::Firmware, inject_ready, dst_idx, op);
            });
        }
        timing
    }

    /// A retransmission timer fired: send the packet again (same
    /// sequence number, so a late original and the retransmit dedupe at
    /// the receiver) or give up and surface
    /// [`Upcall::PeerUnreachable`].
    fn retransmit(&mut self, now: Time, pkt: Packet, attempt: u32) -> Step {
        let mut step = Step::default();
        if attempt >= self.cfg.max_send_attempts {
            let token_bearing =
                pkt.tag == Tag::NONE || matches!(pkt.kind, MsgKind::AtomicReply { .. });
            if self.degraded && token_bearing {
                // Two packet classes must not die. Untagged packets are
                // firmware-internal control traffic (collective fan-in/
                // fan-out, timestamp prefetches) whose episode state
                // lives only in the message itself — no host transaction
                // exists to fail. Atomic replies report a swap that
                // already executed at the responder: the cell change
                // cannot be rolled back, and for a wait-mode CAS the
                // reply *is* the lock token — losing it would strand
                // every waiter parked behind the orphaned cell.
                // Degraded mode hands both to the reliable management
                // channel: one slow out-of-band hop, injector bypassed.
                self.recovery.mgmt_deliveries += 1;
                step.events
                    .push((now + self.cfg.retry_timeout, Event::Delivered(pkt)));
                return step;
            }
            self.recovery.unreachable += 1;
            step.upcalls.push((
                now,
                Upcall::PeerUnreachable {
                    nic: pkt.src,
                    peer: pkt.dst,
                    tag: pkt.tag,
                },
            ));
            return step;
        }
        self.recovery.retransmits += 1;
        let op = self.obs_op(pkt.tag);
        self.obs_record(|o| {
            o.instant_op(
                SpanKind::Retransmit,
                pkt.src.index(),
                Track::Firmware,
                now,
                pkt.dst.index() as u64,
                op,
            );
        });
        // The packet is still staged in NI memory: retransmission is a
        // pure firmware injection, like `fw_send`.
        let class = self.size_class(pkt.bytes);
        let inject_ready = self.model.fw_inject(now, pkt.src);
        let timing = self.inject_packet(inject_ready, pkt, attempt, &mut step.events);
        let wire = self.net.config().wire_time(pkt.bytes);
        self.monitor.record(
            Stage::Lanai,
            class,
            timing.inject_end.saturating_since(now),
            self.model.inject_cost() + wire,
        );
        self.monitor.record(
            Stage::Net,
            class,
            timing.deliver.saturating_since(now),
            self.model.inject_cost() + self.net.uncontended(pkt.bytes),
        );
        self.monitor.count_packet(class, pkt.bytes);
        step
    }

    /// Sends a firmware-generated packet (fetch reply, lock traffic).
    /// Handles the `src == dst` case as a local firmware hop.
    fn fw_send(
        &mut self,
        now: Time,
        src: NicId,
        dst: NicId,
        bytes: u32,
        kind: MsgKind,
        tag: Tag,
    ) -> (Time, Step) {
        // A departing lock grant starts a flow arrow; the receiving
        // NI's `lock_op` records the matching finish with the same
        // `(lock, tag)`-derived id.
        if let MsgKind::LockMsg(LockOp::Grant { lock, tag: wtag }) = kind {
            let id = flow_lock_id(lock.index() as u64, wtag.value());
            let op = self.obs_op(wtag);
            self.obs_record(|o| {
                o.instant_flow_op(
                    SpanKind::NiLockGrant,
                    src.index(),
                    Track::Firmware,
                    now,
                    lock.index() as u64,
                    Flow {
                        id,
                        dir: FlowDir::Start,
                    },
                    op,
                );
            });
        }
        let mut step = Step::default();
        if src == dst {
            let at = now + LOCAL_HOP;
            let pkt = Packet {
                src,
                dst,
                bytes,
                kind,
                tag,
                seq: 0,
                posted_ns: now.as_ns(),
                source_done_ns: now.as_ns(),
            };
            step.events.push((at, Event::Delivered(pkt)));
            return (at, step);
        }
        // Firmware-generated packets are already staged in NI memory:
        // no post queue, no pick, no source DMA — just injection.
        let class = self.size_class(bytes);
        let inject_ready = self.model.fw_inject(now, src);
        let pkt = Packet {
            src,
            dst,
            bytes,
            kind,
            tag,
            seq: 0,
            posted_ns: now.as_ns(),
            source_done_ns: now.as_ns(),
        };
        let timing = self.inject_packet(inject_ready, pkt, 0, &mut step.events);
        let wire = self.net.config().wire_time(bytes);
        self.monitor.record(
            Stage::Lanai,
            class,
            timing.inject_end.saturating_since(now),
            self.model.inject_cost() + wire,
        );
        self.monitor.record(
            Stage::Net,
            class,
            timing.deliver.saturating_since(now),
            self.model.inject_cost() + self.net.uncontended(bytes),
        );
        self.monitor.count_packet(class, bytes);
        (timing.deliver, step)
    }

    /// Emits a completion-queue notification instant when the model
    /// wrote a CQE for an arrived deposit (solicited-event path).
    fn notify_cqe(&mut self, cqe: bool, dst: NicId, at: Time, src: NicId, op: u64) {
        if cqe {
            self.obs_record(|o| {
                o.instant_op(
                    SpanKind::CqNotify,
                    dst.index(),
                    Track::Firmware,
                    at,
                    src.index() as u64,
                    op,
                );
            });
        }
    }

    /// Destination-side processing of an arrived packet.
    fn deliver(&mut self, now: Time, pkt: Packet) -> Step {
        let class = self.size_class(pkt.bytes);
        let mut step = Step::default();
        let local = pkt.src == pkt.dst; // firmware-local hop: skip wire-side costs
        let mut now = now;
        if pkt.seq != 0 {
            // Fault-injected run: dedupe on the channel's sequence
            // numbers (a retransmit racing its delayed original, or a
            // fabric duplicate, must be applied exactly once), and let
            // the injector stall this firmware's receive path.
            let chan = pkt.src.index() * self.ports + pkt.dst.index();
            if !self.seen[chan].insert(pkt.seq) {
                // Already processed: the firmware still spends receive
                // time recognising and discarding the copy.
                self.recovery.duplicates_suppressed += 1;
                self.model.recv_discard(now, pkt.dst);
                return step;
            }
            if let Some(inj) = self.injector.as_mut() {
                now += inj.recv_stall(pkt.dst, now);
            }
        }
        // The operation this packet belongs to, resolved once for every
        // receiver-side emission below.
        let pop = self.obs_op(pkt.tag);
        if !local && pop != 0 {
            // Wire occupancy, charged at the receiver: from the moment
            // the source DMA finished to the packet leaving the fabric.
            let wire_start = Time::from_ns(pkt.source_done_ns);
            let wire_end = now;
            let dst_idx = pkt.dst.index();
            let src_idx = pkt.src.index() as u64;
            self.obs_record(|o| {
                o.span_op(
                    SpanKind::WireTransit,
                    dst_idx,
                    Track::Firmware,
                    wire_start,
                    wire_end,
                    src_idx,
                    pop,
                );
            });
        }
        let recv_done = if local {
            now
        } else {
            self.model.recv_accept(now, pkt.dst)
        };

        match pkt.kind {
            MsgKind::GatherDeposit { runs } => {
                // Scatter on the receive side: firmware unpacks each
                // run before (or while) DMA-ing the payload home.
                let rd = self
                    .model
                    .deposit_dma(recv_done, pkt.dst, pkt.bytes, Some(runs));
                self.monitor.record(
                    Stage::Dest,
                    class,
                    rd.dma_done - now,
                    self.model.recv_cost() + rd.expected,
                );
                self.notify_cqe(rd.cqe, pkt.dst, rd.dma_done, pkt.src, pop);
                step.upcalls.push((
                    rd.dma_done,
                    Upcall::DepositArrived {
                        nic: pkt.dst,
                        tag: pkt.tag,
                        src: pkt.src,
                    },
                ));
            }
            MsgKind::Deposit | MsgKind::HostMsg | MsgKind::FetchReply => {
                let rd = self.model.deposit_dma(recv_done, pkt.dst, pkt.bytes, None);
                let dma_done = rd.dma_done;
                self.monitor.record(
                    Stage::Dest,
                    class,
                    dma_done - now,
                    self.model.recv_cost() + rd.expected,
                );
                self.notify_cqe(rd.cqe, pkt.dst, dma_done, pkt.src, pop);
                let upcall = match pkt.kind {
                    MsgKind::Deposit => Upcall::DepositArrived {
                        nic: pkt.dst,
                        tag: pkt.tag,
                        src: pkt.src,
                    },
                    MsgKind::HostMsg => Upcall::HostMsgArrived {
                        nic: pkt.dst,
                        tag: pkt.tag,
                        src: pkt.src,
                    },
                    MsgKind::FetchReply => Upcall::FetchCompleted {
                        nic: pkt.dst,
                        tag: pkt.tag,
                    },
                    other => unreachable!("host-DMA arm cannot deliver {other:?}"),
                };
                step.upcalls.push((dma_done, upcall));
            }
            MsgKind::FetchReq { reply_bytes, key } => {
                // The NI serves the fetch: look up the export /
                // translation table (possibly faulting the page in,
                // on demand-paged hardware), DMA the data out of host
                // memory, send it back. The DMA moves host→NI, i.e.
                // the send direction of the I/O bus.
                let fs = self.model.serve_fetch(recv_done, pkt.dst, reply_bytes, key);
                let dma_done = fs.data_ready;
                self.monitor.record(
                    Stage::Dest,
                    class,
                    dma_done - now,
                    self.model.recv_cost() + fs.expected,
                );
                if fs.odp_fault {
                    self.obs_record(|o| {
                        o.instant_op(
                            SpanKind::OdpFault,
                            pkt.dst.index(),
                            Track::Firmware,
                            recv_done,
                            key,
                            pop,
                        );
                    });
                }
                self.obs_record(|o| {
                    o.span_op(
                        SpanKind::FetchService,
                        pkt.dst.index(),
                        Track::Firmware,
                        recv_done,
                        dma_done,
                        pkt.src.index() as u64,
                        pop,
                    );
                });
                let (_, sub) = self.fw_send(
                    dma_done,
                    pkt.dst,
                    pkt.src,
                    reply_bytes,
                    MsgKind::FetchReply,
                    pkt.tag,
                );
                step.events.extend(sub.events);
                step.upcalls.extend(sub.upcalls);
            }
            MsgKind::FetchAndStore { cell, new } => {
                // Served in firmware like a fetch: swap the word, send
                // the old value back.
                let svc_done = self.model.sync_service(recv_done, pkt.dst, false);
                self.monitor.record(
                    Stage::Dest,
                    class,
                    svc_done - now,
                    self.model.recv_cost() + self.model.sync_cost(),
                );
                let old = self.atomic_swap(pkt.dst, cell, new);
                let (_, sub) = self.fw_send(
                    svc_done,
                    pkt.dst,
                    pkt.src,
                    16,
                    MsgKind::AtomicReply { old },
                    pkt.tag,
                );
                step.events.extend(sub.events);
                step.upcalls.extend(sub.upcalls);
                self.replay_cas_waiters(svc_done, pkt.dst, cell, &mut step);
            }
            MsgKind::MaskedCas(cas) => {
                // The masked-CAS unit runs where the atomic unit runs:
                // compare under the mask, swap on success, and return
                // the previous value. A failed `wait`-mode compare
                // parks here instead of replying and replays when the
                // cell is written.
                let svc_done = self.model.sync_service(recv_done, pkt.dst, false);
                self.monitor.record(
                    Stage::Dest,
                    class,
                    svc_done - now,
                    self.model.recv_cost() + self.model.sync_cost(),
                );
                let (old, wrote) = self.atomic_cas(pkt.dst, cas);
                if cas.wait && !wrote {
                    self.park_cas(pkt.dst, pkt.src, cas, pkt.tag);
                } else {
                    let (_, sub) = self.fw_send(
                        svc_done,
                        pkt.dst,
                        pkt.src,
                        16,
                        MsgKind::AtomicReply { old },
                        pkt.tag,
                    );
                    step.events.extend(sub.events);
                    step.upcalls.extend(sub.upcalls);
                    if wrote {
                        self.replay_cas_waiters(svc_done, pkt.dst, cas.cell, &mut step);
                    }
                }
            }
            MsgKind::AtomicReply { old } => {
                let svc_done = self.model.sync_service(recv_done, pkt.dst, false);
                step.upcalls.push((
                    svc_done + self.model.notify(),
                    Upcall::AtomicCompleted {
                        nic: pkt.dst,
                        tag: pkt.tag,
                        old,
                    },
                ));
            }
            MsgKind::CollMsg(op) => {
                let svc_done = self.model.coll_service(recv_done, pkt.dst, false);
                self.monitor.record(
                    Stage::Dest,
                    class,
                    svc_done - now,
                    self.model.recv_cost() + self.model.coll_cost(),
                );
                let (coll, epoch, kind, edge_child) = match op {
                    CollOp::Arrive { coll, epoch } => {
                        (coll, epoch, SpanKind::CollFanIn, pkt.src.index())
                    }
                    CollOp::Release { coll, epoch } => {
                        (coll, epoch, SpanKind::CollFanOut, pkt.dst.index())
                    }
                };
                let id = flow_coll_id(coll.index() as u64, epoch as u64, edge_child as u64);
                let bop = op_barrier_id(coll.index() as u64, epoch as u64);
                self.obs_record(|o| {
                    o.instant_flow_op(
                        kind,
                        pkt.dst.index(),
                        Track::Firmware,
                        recv_done,
                        coll.index() as u64,
                        Flow {
                            id,
                            dir: FlowDir::Finish,
                        },
                        bop,
                    );
                    o.span_op(
                        SpanKind::CollCombine,
                        pkt.dst.index(),
                        Track::Firmware,
                        recv_done,
                        svc_done,
                        coll.index() as u64,
                        bop,
                    );
                });
                let sub = self.coll_op(svc_done, pkt.dst, pkt.src, op);
                step.events.extend(sub.events);
                step.upcalls.extend(sub.upcalls);
            }
            MsgKind::LockMsg(op) => {
                let svc_done = self.model.sync_service(recv_done, pkt.dst, false);
                if !local {
                    self.monitor.record(
                        Stage::Dest,
                        class,
                        svc_done - now,
                        self.model.recv_cost() + self.model.sync_cost(),
                    );
                }
                let serviced = match op {
                    LockOp::Request { lock, .. } => lock,
                    LockOp::Transfer { lock, .. } => lock,
                    LockOp::Grant { lock, .. } => lock,
                };
                self.obs_record(|o| {
                    o.span_op(
                        SpanKind::NiLockService,
                        pkt.dst.index(),
                        Track::Firmware,
                        recv_done,
                        svc_done,
                        serviced.index() as u64,
                        pop,
                    );
                });
                let sub = self.lock_op(svc_done, pkt.dst, op, pkt.tag);
                step.events.extend(sub.events);
                step.upcalls.extend(sub.upcalls);
            }
        }
        step
    }

    /// Firmware lock state machine, executed at `nic` at time `now`.
    /// `pkt_tag` is the tag carried by the packet that triggered the
    /// operation (the requester's acquire tag, for requests).
    fn lock_op(&mut self, now: Time, nic: NicId, op: LockOp, pkt_tag: Tag) -> Step {
        let mut step = Step::default();
        match op {
            LockOp::Request { lock, requester } => {
                // Only the home processes requests.
                let fw = &mut self.locks[lock.index()];
                debug_assert_eq!(fw.home, nic);
                let prev = fw.tail;
                fw.tail = requester;
                // The requester's acquire tag travelled with the
                // request packet and is threaded through the transfer
                // so the eventual grant can carry it back.
                let (_, sub) = self.fw_send(
                    now,
                    nic,
                    prev,
                    LOCK_REQ_BYTES,
                    MsgKind::LockMsg(LockOp::Transfer {
                        lock,
                        requester,
                        tag: pkt_tag,
                    }),
                    pkt_tag,
                );
                step.events.extend(sub.events);
                step.upcalls.extend(sub.upcalls);
            }
            LockOp::Transfer {
                lock,
                requester,
                tag,
            } => {
                let slot = &mut self.locks[lock.index()].slots[nic.index()];
                match slot.state {
                    SlotState::Released => {
                        slot.state = SlotState::Idle;
                        self.trace_lock(now, nic, lock, LockChange::Released);
                        if nic != requester {
                            step.upcalls.push((now, Upcall::LockDeparted { nic, lock }));
                        }
                        let grant_bytes = self.cfg.lock_grant_bytes;
                        let (_, sub) = self.fw_send(
                            now,
                            nic,
                            requester,
                            grant_bytes,
                            MsgKind::LockMsg(LockOp::Grant { lock, tag }),
                            tag,
                        );
                        step.events.extend(sub.events);
                        step.upcalls.extend(sub.upcalls);
                    }
                    SlotState::HeldLocal | SlotState::AwaitingGrant => {
                        debug_assert!(
                            slot.next.is_none(),
                            "chain gives each owner at most one successor"
                        );
                        slot.next = Some((requester, tag));
                    }
                    SlotState::Idle => {
                        unreachable!("transfer sent to a NIC outside the chain")
                    }
                }
            }
            LockOp::Grant { lock, tag } => {
                let slot = &mut self.locks[lock.index()].slots[nic.index()];
                if slot.state == SlotState::HeldLocal {
                    // A duplicated grant that slipped past sequence
                    // dedupe (a local-hop copy carries no sequence
                    // number): the lock is already held here, so the
                    // copy is discarded without a second flow finish
                    // or a spurious host wakeup.
                    self.recovery.duplicates_suppressed += 1;
                    return step;
                }
                debug_assert_eq!(slot.state, SlotState::AwaitingGrant);
                slot.state = SlotState::HeldLocal;
                self.trace_lock(now, nic, lock, LockChange::Acquired);
                let id = flow_lock_id(lock.index() as u64, tag.value());
                let op = self.obs_op(tag);
                self.obs_record(|o| {
                    o.instant_flow_op(
                        SpanKind::NiLockGrant,
                        nic.index(),
                        Track::Firmware,
                        now,
                        lock.index() as u64,
                        Flow {
                            id,
                            dir: FlowDir::Finish,
                        },
                        op,
                    );
                });
                let at = now + self.model.notify();
                step.upcalls
                    .push((at, Upcall::LockGranted { nic, lock, tag }));
            }
        }
        step
    }

    /// Firmware collective state machine, executed at `nic` at `now`
    /// after a [`MsgKind::CollMsg`] packet from `src` was serviced.
    fn coll_op(&mut self, now: Time, nic: NicId, src: NicId, op: CollOp) -> Step {
        let mut step = Step::default();
        let mut actions = std::mem::take(&mut self.coll_scratch);
        let coll = match op {
            CollOp::Arrive { coll, epoch } => {
                let cs = self
                    .colls
                    .get_mut(&coll)
                    .unwrap_or_else(|| panic!("fan-in signal for unknown collective {coll:?}"));
                cs.child_arrive_into(nic.index() as u32, src.index() as u32, epoch, &mut actions);
                coll
            }
            CollOp::Release { coll, epoch } => {
                let cs = self
                    .colls
                    .get_mut(&coll)
                    .unwrap_or_else(|| panic!("release signal for unknown collective {coll:?}"));
                cs.release_into(nic.index() as u32, epoch, &mut actions);
                coll
            }
        };
        self.apply_coll_actions(now, coll, &actions, &mut step);
        actions.clear();
        self.coll_scratch = actions;
        step
    }

    /// Maps [`Action`]s from the collective state machine onto the
    /// firmware send path and host completion flags: fan-in and
    /// fan-out signals become firmware-generated packets (whose byte
    /// count carries the reduce payload), an exit becomes a
    /// [`Upcall::CollCompleted`] one `grant_notify` later — the host
    /// notices the completion flag exactly as it notices a granted
    /// lock.
    fn apply_coll_actions(&mut self, t: Time, coll: CollId, actions: &[Action], step: &mut Step) {
        let width = self
            .colls
            .get(&coll)
            .map(|cs| cs.width())
            .expect("collective instance exists");
        let bytes = COLL_HDR_BYTES + 8 * width as u32;
        for &a in actions {
            match a {
                Action::SendArrive { from, to, epoch } => {
                    let id = flow_coll_id(coll.index() as u64, epoch as u64, from as u64);
                    let bop = op_barrier_id(coll.index() as u64, epoch as u64);
                    self.obs_record(|o| {
                        o.instant_flow_op(
                            SpanKind::CollFanIn,
                            from as usize,
                            Track::Firmware,
                            t,
                            coll.index() as u64,
                            Flow {
                                id,
                                dir: FlowDir::Start,
                            },
                            bop,
                        );
                    });
                    let (_, sub) = self.fw_send(
                        t,
                        NicId::new(from as usize),
                        NicId::new(to as usize),
                        bytes,
                        MsgKind::CollMsg(CollOp::Arrive { coll, epoch }),
                        Tag::NONE,
                    );
                    step.events.extend(sub.events);
                    step.upcalls.extend(sub.upcalls);
                }
                Action::SendRelease { from, to, epoch } => {
                    let id = flow_coll_id(coll.index() as u64, epoch as u64, to as u64);
                    let bop = op_barrier_id(coll.index() as u64, epoch as u64);
                    self.obs_record(|o| {
                        o.instant_flow_op(
                            SpanKind::CollFanOut,
                            from as usize,
                            Track::Firmware,
                            t,
                            coll.index() as u64,
                            Flow {
                                id,
                                dir: FlowDir::Start,
                            },
                            bop,
                        );
                    });
                    let (_, sub) = self.fw_send(
                        t,
                        NicId::new(from as usize),
                        NicId::new(to as usize),
                        bytes,
                        MsgKind::CollMsg(CollOp::Release { coll, epoch }),
                        Tag::NONE,
                    );
                    step.events.extend(sub.events);
                    step.upcalls.extend(sub.upcalls);
                }
                Action::Exit { node, epoch, .. } => {
                    step.upcalls.push((
                        t + self.model.notify(),
                        Upcall::CollCompleted {
                            nic: NicId::new(node as usize),
                            coll,
                            epoch,
                        },
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genima_sim::EventQueue;

    fn comm(ports: usize, nlocks: usize) -> Comm {
        Comm::new(NicConfig::default(), NetConfig::myrinet(), ports, nlocks)
    }

    /// Runs pending events to quiescence, returning time-sorted upcalls.
    fn drain(comm: &mut Comm, posts: Vec<Post>) -> Vec<(Time, Upcall)> {
        let mut q = EventQueue::new();
        let mut ups = Vec::new();
        for p in posts {
            ups.extend(p.upcalls);
            for (t, e) in p.events {
                q.push(t, e);
            }
        }
        while let Some((t, e)) = q.pop() {
            let step = comm.handle(t, e);
            ups.extend(step.upcalls);
            for (t2, e2) in step.events {
                q.push(t2, e2);
            }
        }
        ups.sort_by_key(|&(t, _)| t);
        ups
    }

    #[test]
    fn one_word_deposit_latency_matches_paper() {
        let mut c = comm(2, 0);
        let post = c.post_send(
            Time::ZERO,
            NicId::new(0),
            SendDesc {
                dst: NicId::new(1),
                bytes: 4,
                kind: MsgKind::Deposit,
                tag: Tag::new(9),
            },
        );
        assert_eq!(post.host_free, Time::ZERO + Dur::from_us(2));
        let ups = drain(&mut c, vec![post]);
        assert_eq!(ups.len(), 1);
        let (t, up) = ups[0];
        assert!(
            matches!(up, Upcall::DepositArrived { tag, .. } if tag == Tag::new(9)),
            "got {up:?}"
        );
        // Paper: ~18us one-way for one word. Accept the 10–22us band.
        assert!(
            t.as_us() > 10.0 && t.as_us() < 22.0,
            "one-word latency {t} outside calibration band"
        );
    }

    #[test]
    fn page_fetch_latency_matches_paper() {
        let mut c = comm(2, 0);
        let post = c.fetch(
            Time::ZERO,
            NicId::new(0),
            NicId::new(1),
            4096,
            crate::ALWAYS_MAPPED,
            Tag::new(1),
        );
        let ups = drain(&mut c, vec![post]);
        let (t, up) = ups[0];
        assert!(matches!(
            up,
            Upcall::FetchCompleted { nic, tag } if nic == NicId::new(0) && tag == Tag::new(1)
        ));
        // Paper §3.1: one 4KB page fetch ≈ 110us.
        assert!(
            t.as_us() > 95.0 && t.as_us() < 125.0,
            "page fetch latency {t} outside calibration band"
        );
    }

    #[test]
    fn host_msg_reaches_host_memory() {
        let mut c = comm(2, 0);
        let post = c.post_send(
            Time::ZERO,
            NicId::new(1),
            SendDesc {
                dst: NicId::new(0),
                bytes: 64,
                kind: MsgKind::HostMsg,
                tag: Tag::new(5),
            },
        );
        let ups = drain(&mut c, vec![post]);
        assert!(matches!(
            ups[0].1,
            Upcall::HostMsgArrived { nic, tag, src }
                if nic == NicId::new(0) && tag == Tag::new(5) && src == NicId::new(1)
        ));
    }

    #[test]
    fn post_queue_full_stalls_host() {
        let mut cfg = NicConfig::default();
        cfg.post_queue_capacity = 4;
        let mut c = Comm::new(cfg, NetConfig::myrinet(), 2, 0);
        let mut last_free = Time::ZERO;
        for i in 0..8 {
            let p = c.post_send(
                Time::ZERO,
                NicId::new(0),
                SendDesc {
                    dst: NicId::new(1),
                    bytes: 4096,
                    kind: MsgKind::Deposit,
                    tag: Tag::new(i),
                },
            );
            last_free = p.host_free;
        }
        // First four posts are immediate (2us); later ones stall until
        // the NI drains slots.
        assert!(
            last_free > Time::ZERO + Dur::from_us(30),
            "8th post of a 4-deep queue should stall, got {last_free}"
        );
    }

    #[test]
    fn lock_acquired_from_home_round_trip() {
        let mut c = comm(2, 1);
        let lock = LockId::new(0); // home = nic0
        assert_eq!(c.lock_home(lock), NicId::new(0));
        let post = c.lock_acquire(Time::ZERO, NicId::new(1), lock, Tag::new(7));
        let ups = drain(&mut c, vec![post]);
        let granted = ups
            .iter()
            .find(|(_, u)| matches!(u, Upcall::LockGranted { .. }))
            .expect("grant");
        assert!(matches!(
            granted.1,
            Upcall::LockGranted { nic, lock: l, tag }
                if nic == NicId::new(1) && l == lock && tag == Tag::new(7)
        ));
        // Requester -> home -> (local transfer) -> grant back: roughly
        // two wire crossings plus firmware; must beat the paper's
        // interrupt-based lock by a wide margin.
        assert!(granted.0.as_us() < 60.0, "NI lock too slow: {}", granted.0);
        assert!(c.lock_owned_by(NicId::new(1), lock));
        assert!(!c.lock_owned_by(NicId::new(0), lock));
        // The home lost ownership along the way.
        let departed = ups
            .iter()
            .any(|(_, u)| matches!(u, Upcall::LockDeparted { nic, .. } if *nic == NicId::new(0)));
        assert!(departed);
    }

    #[test]
    fn contended_lock_transfers_on_release() {
        let mut c = comm(3, 1);
        let lock = LockId::new(0); // home nic0
        let p1 = c.lock_acquire(Time::ZERO, NicId::new(1), lock, Tag::new(1));
        let ups = drain(&mut c, vec![p1]);
        let t1 = ups
            .iter()
            .find(|(_, u)| matches!(u, Upcall::LockGranted { .. }))
            .unwrap()
            .0;
        // nic2 requests while nic1 holds: must wait for nic1's release.
        let p2 = c.lock_acquire(t1, NicId::new(2), lock, Tag::new(2));
        let ups2 = drain(&mut c, vec![p2]);
        assert!(
            ups2.iter()
                .all(|(_, u)| !matches!(u, Upcall::LockGranted { .. })),
            "grant must not happen while held: {ups2:?}"
        );
        // Now nic1 releases; the queued transfer fires.
        let rel_at = t1 + Dur::from_us(100);
        let p3 = c.lock_release(rel_at, NicId::new(1), lock);
        let ups3 = drain(&mut c, vec![p3]);
        let granted = ups3
            .iter()
            .find(|(_, u)| matches!(u, Upcall::LockGranted { nic, .. } if *nic == NicId::new(2)))
            .expect("successor granted after release");
        assert!(granted.0 > rel_at);
        let departed = ups3
            .iter()
            .any(|(_, u)| matches!(u, Upcall::LockDeparted { nic, .. } if *nic == NicId::new(1)));
        assert!(departed);
        assert!(c.lock_owned_by(NicId::new(2), lock));
        assert!(!c.lock_owned_by(NicId::new(1), lock));
    }

    #[test]
    fn released_lock_stays_with_last_owner() {
        let mut c = comm(2, 1);
        let lock = LockId::new(0);
        let p = c.lock_acquire(Time::ZERO, NicId::new(1), lock, Tag::new(1));
        let ups = drain(&mut c, vec![p]);
        let t1 = ups.last().unwrap().0;
        let p2 = c.lock_release(t1, NicId::new(1), lock);
        let ups2 = drain(&mut c, vec![p2]);
        assert!(ups2.is_empty(), "uncontended release is silent: {ups2:?}");
        assert!(
            c.lock_owned_by(NicId::new(1), lock),
            "last owner keeps the lock"
        );
    }

    #[test]
    fn monitor_sees_all_stages() {
        let mut c = comm(2, 0);
        let post = c.post_send(
            Time::ZERO,
            NicId::new(0),
            SendDesc {
                dst: NicId::new(1),
                bytes: 4096,
                kind: MsgKind::Deposit,
                tag: Tag::NONE,
            },
        );
        drain(&mut c, vec![post]);
        let m = c.monitor();
        for stage in Stage::ALL {
            assert_eq!(
                m.stats(stage, SizeClass::Large).actual.count(),
                1,
                "missing sample in {stage:?}"
            );
        }
        assert_eq!(m.packets(SizeClass::Large), 1);
        // Uncontended single transfer: every ratio is exactly 1.
        for stage in Stage::ALL {
            let r = m.stats(stage, SizeClass::Large).ratio();
            assert!((r - 1.0).abs() < 1e-9, "{stage:?} ratio {r}");
        }
    }

    #[test]
    fn back_to_back_pages_show_contention() {
        let mut c = comm(2, 0);
        let mut posts = Vec::new();
        for i in 0..16 {
            posts.push(c.post_send(
                Time::ZERO,
                NicId::new(0),
                SendDesc {
                    dst: NicId::new(1),
                    bytes: 4096,
                    kind: MsgKind::Deposit,
                    tag: Tag::new(i),
                },
            ));
        }
        drain(&mut c, vec![posts.remove(0)]);
        // Drain remaining events too.
        let rest: Vec<Post> = posts.into_iter().collect();
        drain(&mut c, rest);
        let r = c.monitor().stats(Stage::Source, SizeClass::Large).ratio();
        assert!(r > 1.5, "source stage should show queueing, ratio={r}");
    }

    #[test]
    fn fetch_and_store_swaps_and_returns_old() {
        let mut c = comm(2, 0);
        // Remote swap: cell starts 0.
        let p1 = c.fetch_and_store(Time::ZERO, NicId::new(0), NicId::new(1), 3, 7, Tag::new(1));
        let ups = drain(&mut c, vec![p1]);
        assert!(matches!(
            ups[0].1,
            Upcall::AtomicCompleted { tag, old: 0, .. } if tag == Tag::new(1)
        ));
        // Second swap sees the first value.
        let t1 = ups[0].0;
        let p2 = c.fetch_and_store(t1, NicId::new(0), NicId::new(1), 3, 9, Tag::new(2));
        let ups2 = drain(&mut c, vec![p2]);
        assert!(matches!(
            ups2[0].1,
            Upcall::AtomicCompleted { tag, old: 7, .. } if tag == Tag::new(2)
        ));
        // Different cell is independent.
        let p3 = c.fetch_and_store(ups2[0].0, NicId::new(0), NicId::new(1), 4, 1, Tag::new(3));
        let ups3 = drain(&mut c, vec![p3]);
        assert!(matches!(ups3[0].1, Upcall::AtomicCompleted { old: 0, .. }));
    }

    #[test]
    fn local_fetch_and_store_needs_no_network() {
        let mut c = comm(2, 0);
        let p = c.fetch_and_store(Time::ZERO, NicId::new(1), NicId::new(1), 0, 5, Tag::new(1));
        assert!(p.events.is_empty(), "local swap produces no packets");
        assert_eq!(p.upcalls.len(), 1);
        let (t, up) = p.upcalls[0];
        assert!(matches!(up, Upcall::AtomicCompleted { old: 0, .. }));
        assert!(t.as_us() < 10.0, "local swap is fast: {t}");
    }

    #[test]
    fn concurrent_swaps_serialise_at_the_home_firmware() {
        // Two NICs race a test-and-set: exactly one sees old == 0.
        let mut c = comm(3, 0);
        let p1 = c.fetch_and_store(Time::ZERO, NicId::new(1), NicId::new(0), 0, 1, Tag::new(1));
        let p2 = c.fetch_and_store(Time::ZERO, NicId::new(2), NicId::new(0), 0, 1, Tag::new(2));
        let ups = drain(&mut c, vec![p1, p2]);
        let olds: Vec<u64> = ups
            .iter()
            .filter_map(|(_, u)| match u {
                Upcall::AtomicCompleted { old, .. } => Some(*old),
                _ => None,
            })
            .collect();
        assert_eq!(olds.len(), 2, "both swaps complete: {olds:?}");
        assert!(
            matches!((olds[0], olds[1]), (0, 1) | (1, 0)),
            "exactly one winner: {olds:?}"
        );
    }

    #[test]
    fn gather_deposit_carries_runs_in_one_message() {
        let mut cfg = NicConfig::default();
        cfg.scatter_gather = true;
        let mut c = Comm::new(cfg, NetConfig::myrinet(), 2, 0);
        let post = c.post_send(
            Time::ZERO,
            NicId::new(0),
            SendDesc {
                dst: NicId::new(1),
                bytes: 384,
                kind: MsgKind::GatherDeposit { runs: 48 },
                tag: Tag::new(3),
            },
        );
        assert_eq!(post.events.len(), 1, "one message for all runs");
        let ups = drain(&mut c, vec![post]);
        assert!(matches!(
            ups[0].1,
            Upcall::DepositArrived { tag, .. } if tag == Tag::new(3)
        ));
        // Packing and unpacking 48 runs costs real firmware time: the
        // gather message is far slower than a plain deposit of the
        // same size...
        let mut plain = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
        let post = plain.post_send(
            Time::ZERO,
            NicId::new(0),
            SendDesc {
                dst: NicId::new(1),
                bytes: 384,
                kind: MsgKind::Deposit,
                tag: Tag::new(3),
            },
        );
        let plain_ups = drain(&mut plain, vec![post]);
        assert!(ups[0].0 > plain_ups[0].0);
        // ...but much faster than 48 separate small deposits.
        let mut many = Comm::new(NicConfig::default(), NetConfig::myrinet(), 2, 0);
        let mut posts = Vec::new();
        let mut now = Time::ZERO;
        for i in 0..48 {
            let p = many.post_send(
                now,
                NicId::new(0),
                SendDesc {
                    dst: NicId::new(1),
                    bytes: 8,
                    kind: MsgKind::Deposit,
                    tag: Tag::new(i),
                },
            );
            now = p.host_free;
            posts.push(p);
        }
        let many_ups = drain(&mut many, posts);
        assert!(ups[0].0 < many_ups.last().unwrap().0);
    }

    #[test]
    fn broadcast_replicates_one_descriptor() {
        let mut cfg = NicConfig::default();
        cfg.broadcast = true;
        let mut c = Comm::new(cfg, NetConfig::myrinet(), 4, 0);
        let dsts = [
            (NicId::new(1), Tag::new(1)),
            (NicId::new(2), Tag::new(2)),
            (NicId::new(3), Tag::new(3)),
        ];
        let post = c.post_broadcast(Time::ZERO, NicId::new(0), &dsts, 64, MsgKind::Deposit);
        assert_eq!(post.events.len(), 3, "one delivery per destination");
        let ups = drain(&mut c, vec![post]);
        let mut tags: Vec<u64> = ups
            .iter()
            .filter_map(|(_, u)| match u {
                Upcall::DepositArrived { tag, .. } => Some(tag.value()),
                _ => None,
            })
            .collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "broadcast without")]
    fn broadcast_requires_capability() {
        let mut c = comm(2, 0);
        c.post_broadcast(
            Time::ZERO,
            NicId::new(0),
            &[(NicId::new(1), Tag::NONE)],
            8,
            MsgKind::Deposit,
        );
    }

    #[test]
    #[should_panic(expected = "scatter-gather send without")]
    fn gather_requires_capability() {
        let mut c = comm(2, 0);
        c.post_send(
            Time::ZERO,
            NicId::new(0),
            SendDesc {
                dst: NicId::new(1),
                bytes: 64,
                kind: MsgKind::GatherDeposit { runs: 4 },
                tag: Tag::NONE,
            },
        );
    }

    #[test]
    #[should_panic(expected = "intra-node")]
    fn intra_node_send_panics() {
        comm(2, 0).post_send(
            Time::ZERO,
            NicId::new(0),
            SendDesc {
                dst: NicId::new(0),
                bytes: 4,
                kind: MsgKind::Deposit,
                tag: Tag::NONE,
            },
        );
    }

    #[test]
    #[should_panic(expected = "re-requested")]
    fn double_acquire_panics() {
        let mut c = comm(2, 1);
        let lock = LockId::new(0);
        c.lock_acquire(Time::ZERO, NicId::new(1), lock, Tag::new(1));
        c.lock_acquire(Time::ZERO, NicId::new(1), lock, Tag::new(2));
    }

    /// Runs one all-reduce epoch over `ports` nodes, returning the
    /// completion upcalls in time order.
    fn run_coll_epoch(c: &mut Comm, ports: usize, coll: CollId) -> Vec<(Time, Upcall)> {
        let mut posts = Vec::new();
        for n in 0..ports {
            posts.push(c.coll_enter(
                Time::ZERO,
                NicId::new(n),
                coll,
                ReduceOp::Max,
                &[n as u64, 100 + n as u64],
            ));
        }
        drain(c, posts)
    }

    #[test]
    fn tree_all_reduce_completes_on_every_node() {
        for ports in [1, 2, 5, 8] {
            let mut c = comm(ports, 0);
            let coll = CollId::new(0);
            let ups = run_coll_epoch(&mut c, ports, coll);
            let mut done: Vec<usize> = ups
                .iter()
                .filter_map(|(_, u)| match u {
                    Upcall::CollCompleted { nic, epoch: 0, .. } => Some(nic.index()),
                    _ => None,
                })
                .collect();
            done.sort_unstable();
            assert_eq!(done, (0..ports).collect::<Vec<_>>());
            let (epoch, vals) = c.coll_result(coll).expect("combined result");
            assert_eq!(epoch, 0);
            assert_eq!(vals, [ports as u64 - 1, 100 + ports as u64 - 1]);
        }
    }

    #[test]
    fn ni_barrier_beats_serial_fan_in_latency() {
        // 16 nodes, fanout 4: the last completion must arrive well
        // before 16 serialised one-way hops (~18us each) would allow.
        let mut c = comm(16, 0);
        c.set_coll_fanout(4);
        let ups = run_coll_epoch(&mut c, 16, CollId::new(3));
        let last = ups.last().expect("completions").0;
        assert!(
            last.as_us() < 16.0 * 18.0,
            "tree barrier slower than serial fan-in: {last}"
        );
    }

    #[test]
    fn coll_broadcast_reaches_every_node() {
        let mut c = comm(6, 0);
        c.set_coll_fanout(2);
        let coll = CollId::new(1);
        let post = c.coll_broadcast(Time::ZERO, NicId::new(0), coll, &[42, 7]);
        let ups = drain(&mut c, vec![post]);
        let done = ups
            .iter()
            .filter(|(_, u)| matches!(u, Upcall::CollCompleted { epoch: 0, .. }))
            .count();
        assert_eq!(done, 6);
        assert_eq!(c.coll_result(coll).expect("payload").1, [42, 7]);
    }

    #[test]
    fn coll_epochs_chain_without_reset() {
        let mut c = comm(4, 0);
        let coll = CollId::new(0);
        for epoch in 0..3u32 {
            let mut posts = Vec::new();
            for n in 0..4 {
                assert_eq!(c.coll_epoch(coll, NicId::new(n)), epoch);
                posts.push(c.coll_enter(
                    Time::ZERO,
                    NicId::new(n),
                    coll,
                    ReduceOp::Sum,
                    &[1 + epoch as u64],
                ));
            }
            let ups = drain(&mut c, posts);
            let done = ups
                .iter()
                .filter(|(_, u)| matches!(u, Upcall::CollCompleted { epoch: e, .. } if *e == epoch))
                .count();
            assert_eq!(done, 4, "epoch {epoch}");
            assert_eq!(
                c.coll_result(coll),
                Some((epoch, &[4 * (1 + epoch as u64)][..]))
            );
        }
    }
}

//! The SIMT virtual GPU.
//!
//! Kernels execute group-by-group; within a group all threads run in
//! lockstep with divergence masks, exactly like warps on real hardware.
//! The simulator is *functional* (it computes the real answer in device
//! buffers) and *counted* (it accumulates the cost events the paper's
//! evaluation hinges on):
//!
//! - **warp instructions**: each statement costs one issue per active warp;
//! - **global-memory transactions**: per warp and access, the distinct
//!   aligned segments covered by the active lanes' addresses — the
//!   *coalescing* model of Section 5.2;
//! - **bus bytes**: transactions × transaction size (so uncoalesced code
//!   pays the full segment even for 4 useful bytes);
//! - local-memory accesses and barriers.

use crate::device::DeviceProfile;
use futhark_core::{Buffer, Scalar, ScalarType};
use std::collections::HashMap;
use std::fmt;

/// A device buffer handle. Ids are recycled through the free lists, so
/// identity over time is the allocation *stamp* (see
/// [`DeviceMemory::stamp`]), never the id.
pub type BufId = usize;

/// Deterministic memory counters for one run: allocation traffic, reuse
/// hits, hoisted allocations, and the live/peak footprint in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Buffers allocated or uploaded (including reuse hits).
    pub allocs: u64,
    /// Buffers explicitly freed (poisoned).
    pub frees: u64,
    /// Allocations serviced from a dead buffer of compatible type and
    /// size — the free-list hits, plus in-place steals by the executor.
    pub reuses: u64,
    /// Loop-invariant allocations hoisted out of loop bodies (counted per
    /// iteration that wrote into a hoisted buffer).
    pub hoisted: u64,
    /// Bytes live at the end of the run.
    pub live_bytes: u64,
    /// High-water mark of live bytes over the run.
    pub peak_bytes: u64,
}

impl MemStats {
    /// Reuse rate: reuses / allocs (0.0 when nothing was allocated).
    pub fn reuse_rate(&self) -> f64 {
        if self.allocs == 0 {
            0.0
        } else {
            self.reuses as f64 / self.allocs as f64
        }
    }

    /// Serialises to JSON (for trace archives and baselines).
    pub fn to_json(&self) -> futhark_trace::Json {
        use futhark_trace::Json;
        Json::obj(vec![
            ("allocs", Json::U64(self.allocs)),
            ("frees", Json::U64(self.frees)),
            ("reuses", Json::U64(self.reuses)),
            ("hoisted", Json::U64(self.hoisted)),
            ("live_bytes", Json::U64(self.live_bytes)),
            ("peak_bytes", Json::U64(self.peak_bytes)),
        ])
    }

    /// Deserialises from JSON.
    pub fn from_json(j: &futhark_trace::Json) -> Option<MemStats> {
        Some(MemStats {
            allocs: j.get("allocs")?.as_u64()?,
            frees: j.get("frees")?.as_u64()?,
            reuses: j.get("reuses")?.as_u64()?,
            hoisted: j.get("hoisted")?.as_u64()?,
            live_bytes: j.get("live_bytes")?.as_u64()?,
            peak_bytes: j.get("peak_bytes")?.as_u64()?,
        })
    }
}

/// What bound a launch's modelled time: the component that won the `max`
/// in the timing model (ties resolve compute ≥ memory ≥ local, matching
/// the `.max()` chain in [`kernel_time_us`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Limiter {
    /// Warp-instruction issue throughput bound the launch.
    Compute,
    /// Global-memory bandwidth bound the launch.
    Memory,
    /// Local-memory throughput bound the launch.
    Local,
}

impl Limiter {
    /// The stable string form used in JSON and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Limiter::Compute => "compute",
            Limiter::Memory => "memory",
            Limiter::Local => "local",
        }
    }

    /// Parses the stable string form back.
    pub fn parse(s: &str) -> Option<Limiter> {
        match s {
            "compute" => Some(Limiter::Compute),
            "memory" => Some(Limiter::Memory),
            "local" => Some(Limiter::Local),
            _ => None,
        }
    }
}

impl fmt::Display for Limiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The full time decomposition of one (or several merged) launches:
/// the fixed overhead plus the three overlapping throughput components
/// of which only the slowest is paid.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Fixed launch overhead, microseconds.
    pub overhead_us: f64,
    /// Warp-instruction issue time, microseconds.
    pub compute_us: f64,
    /// Global-memory bus time, microseconds.
    pub memory_us: f64,
    /// Local-memory access time, microseconds.
    pub local_us: f64,
}

impl TimeBreakdown {
    /// The modelled launch time: `overhead + max(compute, memory, local)`
    /// — bit-identical to [`kernel_time_us`] for a per-launch breakdown.
    pub fn total_us(&self) -> f64 {
        self.overhead_us + self.compute_us.max(self.memory_us).max(self.local_us)
    }

    /// The binding component. Ties resolve compute ≥ memory ≥ local,
    /// consistent with [`Self::total_us`]'s `max` chain.
    pub fn limiter(&self) -> Limiter {
        if self.compute_us >= self.memory_us && self.compute_us >= self.local_us {
            Limiter::Compute
        } else if self.memory_us >= self.local_us {
            Limiter::Memory
        } else {
            Limiter::Local
        }
    }

    /// Adds another breakdown component-wise (overheads sum too, so a
    /// merged breakdown's `total_us` is a lower bound on the summed
    /// per-launch totals, not equal to them: max-of-sums ≤ sum-of-maxes).
    pub fn merge(&mut self, o: &TimeBreakdown) {
        self.overhead_us += o.overhead_us;
        self.compute_us += o.compute_us;
        self.memory_us += o.memory_us;
        self.local_us += o.local_us;
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> futhark_trace::Json {
        use futhark_trace::Json;
        Json::obj(vec![
            ("overhead_us", Json::F64(self.overhead_us)),
            ("compute_us", Json::F64(self.compute_us)),
            ("memory_us", Json::F64(self.memory_us)),
            ("local_us", Json::F64(self.local_us)),
            ("limiter", Json::Str(self.limiter().as_str().to_string())),
        ])
    }

    /// Deserialises from JSON (the redundant `limiter` field is checked,
    /// not trusted).
    pub fn from_json(j: &futhark_trace::Json) -> Option<TimeBreakdown> {
        let b = TimeBreakdown {
            overhead_us: j.get("overhead_us")?.as_f64()?,
            compute_us: j.get("compute_us")?.as_f64()?,
            memory_us: j.get("memory_us")?.as_f64()?,
            local_us: j.get("local_us")?.as_f64()?,
        };
        let lim = Limiter::parse(j.get("limiter")?.as_str()?)?;
        if lim != b.limiter() {
            return None;
        }
        Some(b)
    }
}

/// The kind of a device-memory timeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemOp {
    /// A fresh allocation (or upload) that created a new slot.
    Alloc,
    /// An allocation serviced from the free list (a dead slot recycled).
    Reuse,
    /// An explicit free: the slot's data dropped and poisoned.
    Free,
    /// An in-place steal by the executor: a kernel output took over its
    /// input's buffer instead of allocating.
    Steal,
    /// A loop-hoisted allocation written in place per iteration.
    Hoist,
    /// A double-buffer rotation free at a loop step boundary.
    Rotate,
}

impl MemOp {
    /// The stable string form used in JSON and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            MemOp::Alloc => "alloc",
            MemOp::Reuse => "reuse",
            MemOp::Free => "free",
            MemOp::Steal => "steal",
            MemOp::Hoist => "hoist",
            MemOp::Rotate => "rotate",
        }
    }

    /// Parses the stable string form back.
    pub fn parse(s: &str) -> Option<MemOp> {
        match s {
            "alloc" => Some(MemOp::Alloc),
            "reuse" => Some(MemOp::Reuse),
            "free" => Some(MemOp::Free),
            "steal" => Some(MemOp::Steal),
            "hoist" => Some(MemOp::Hoist),
            "rotate" => Some(MemOp::Rotate),
            _ => None,
        }
    }
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One device-memory timeline event: what happened to which buffer, how
/// many bytes it covered, the live footprint right after, and the source
/// site (provenance key) the executor attributed it to ("?" when unknown).
#[derive(Debug, Clone, PartialEq)]
pub struct MemEvent {
    /// What happened.
    pub op: MemOp,
    /// The buffer id involved (ids recycle; identity over time is the
    /// event order).
    pub buf: BufId,
    /// Bytes the buffer covers.
    pub bytes: u64,
    /// Live bytes immediately after the event.
    pub live_bytes: u64,
    /// Provenance key of the owning source site ("?" when unattributed).
    pub site: String,
}

impl MemEvent {
    /// Serialises to JSON.
    pub fn to_json(&self) -> futhark_trace::Json {
        use futhark_trace::Json;
        Json::obj(vec![
            ("op", Json::Str(self.op.as_str().to_string())),
            ("buf", Json::U64(self.buf as u64)),
            ("bytes", Json::U64(self.bytes)),
            ("live_bytes", Json::U64(self.live_bytes)),
            ("site", Json::Str(self.site.clone())),
        ])
    }

    /// Deserialises from JSON.
    pub fn from_json(j: &futhark_trace::Json) -> Option<MemEvent> {
        Some(MemEvent {
            op: MemOp::parse(j.get("op")?.as_str()?)?,
            buf: usize::try_from(j.get("buf")?.as_u64()?).ok()?,
            bytes: j.get("bytes")?.as_u64()?,
            live_bytes: j.get("live_bytes")?.as_u64()?,
            site: j.get("site")?.as_str()?.to_string(),
        })
    }
}

/// A raw, site-less memory event recorded inside [`DeviceMemory`]; the
/// executor attributes sites when draining the log.
pub type RawMemEvent = (MemOp, BufId, u64, u64);

/// One slot of the device-memory arena.
#[derive(Debug)]
enum Slot {
    /// A live buffer; `stamp` is the monotone allocation epoch that
    /// distinguishes successive occupants of a recycled id.
    Live { buf: Buffer, stamp: u64 },
    /// A freed slot: the data is *dropped* (poisoned), only the shape is
    /// kept so the slot can be recycled by a compatible allocation.
    Freed { t: ScalarType, len: usize },
}

/// Device global memory: a typed-buffer arena with free lists, poisoned
/// freed slots, live/peak byte tracking and an optional capacity taken
/// from the [`DeviceProfile`].
///
/// Freed slots keep no data — any access through a stale [`BufId`] is a
/// structured [`SimError::UseAfterFree`], and reuse re-creates the buffer
/// zero-initialised, so recycling is observationally identical to a fresh
/// allocation.
#[derive(Debug, Default)]
pub struct DeviceMemory {
    slots: Vec<Slot>,
    /// Dead slots by (element type, length), LIFO.
    free_lists: HashMap<(ScalarType, usize), Vec<BufId>>,
    next_stamp: u64,
    capacity: Option<u64>,
    live_bytes: u64,
    peak_bytes: u64,
    allocs: u64,
    frees: u64,
    reuses: u64,
    /// Raw timeline events, recorded only when the log was enabled (the
    /// executor enables it; bare simulator use stays log-free).
    event_log: Option<Vec<RawMemEvent>>,
}

impl DeviceMemory {
    /// Creates empty device memory with unlimited capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates empty device memory with an explicit capacity in bytes.
    pub fn with_capacity(capacity: u64) -> Self {
        DeviceMemory {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// Creates empty device memory sized from a device profile.
    pub fn from_profile(device: &DeviceProfile) -> Self {
        Self::with_capacity(device.global_mem_bytes)
    }

    fn charge(&mut self, t: ScalarType, len: usize) -> SResult<u64> {
        let bytes = (len * t.byte_size()) as u64;
        if let Some(cap) = self.capacity {
            if self.live_bytes + bytes > cap {
                return Err(SimError::OutOfMemory {
                    requested: bytes,
                    live: self.live_bytes,
                    capacity: cap,
                });
            }
        }
        self.live_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        self.allocs += 1;
        Ok(bytes)
    }

    fn place(&mut self, t: ScalarType, len: usize, buf: Buffer) -> BufId {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let bytes = (len * t.byte_size()) as u64;
        let (id, op) = match self.free_lists.get_mut(&(t, len)).and_then(|l| l.pop()) {
            Some(id) => {
                debug_assert!(
                    matches!(self.slots[id], Slot::Freed { t: ft, len: fl } if ft == t && fl == len),
                    "free-list entry {id} does not match its (type, length) class"
                );
                self.reuses += 1;
                self.slots[id] = Slot::Live { buf, stamp };
                (id, MemOp::Reuse)
            }
            None => {
                self.slots.push(Slot::Live { buf, stamp });
                (self.slots.len() - 1, MemOp::Alloc)
            }
        };
        if let Some(log) = &mut self.event_log {
            log.push((op, id, bytes, self.live_bytes));
        }
        id
    }

    /// Turns on the raw event log; every alloc/reuse/free from here on is
    /// recorded for [`Self::take_events`]. Off by default so bare
    /// simulator use (unit tests, launch-level parity tests) pays nothing.
    pub fn enable_event_log(&mut self) {
        if self.event_log.is_none() {
            self.event_log = Some(Vec::new());
        }
    }

    /// Whether events were recorded since the last [`Self::take_events`].
    pub(crate) fn has_events(&self) -> bool {
        self.event_log.as_ref().is_some_and(|log| !log.is_empty())
    }

    /// Drains the raw events recorded since the last call (empty when the
    /// log was never enabled).
    pub fn take_events(&mut self) -> Vec<RawMemEvent> {
        match &mut self.event_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Allocates a zero-initialised buffer, recycling a dead slot of the
    /// same element type and length when one exists.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfMemory`] when the allocation would push the live
    /// footprint past the device capacity.
    pub fn alloc(&mut self, t: ScalarType, len: usize) -> SResult<BufId> {
        self.charge(t, len)?;
        Ok(self.place(t, len, Buffer::zeros(t, len)))
    }

    /// Uploads host data, recycling a dead slot when one fits.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfMemory`] when over capacity.
    pub fn upload(&mut self, data: Buffer) -> SResult<BufId> {
        let (t, len) = (data.elem_type(), data.len());
        self.charge(t, len)?;
        Ok(self.place(t, len, data))
    }

    /// Frees a buffer: the data is dropped (poisoning any stale handle)
    /// and the slot joins the free list for its (type, length) class.
    /// Freeing an already-dead id is a no-op, so plan-inserted frees over
    /// alias classes are idempotent.
    pub fn free(&mut self, id: BufId) {
        let Some(slot) = self.slots.get_mut(id) else {
            return;
        };
        if let Slot::Live { buf, .. } = slot {
            let (t, len) = (buf.elem_type(), buf.len());
            let bytes = (len * t.byte_size()) as u64;
            self.live_bytes -= bytes;
            self.frees += 1;
            *slot = Slot::Freed { t, len };
            self.free_lists.entry((t, len)).or_default().push(id);
            if let Some(log) = &mut self.event_log {
                log.push((MemOp::Free, id, bytes, self.live_bytes));
            }
        }
    }

    /// Whether `id` currently names a live buffer.
    pub fn is_live(&self, id: BufId) -> bool {
        matches!(self.slots.get(id), Some(Slot::Live { .. }))
    }

    /// The allocation stamp of a live buffer (monotone across the run;
    /// unlike ids, never recycled).
    pub fn stamp(&self, id: BufId) -> Option<u64> {
        match self.slots.get(id) {
            Some(Slot::Live { stamp, .. }) => Some(*stamp),
            _ => None,
        }
    }

    /// The next allocation stamp: every buffer allocated from now on has
    /// `stamp >= epoch()`. The executor snapshots this at loop entry as
    /// the double-buffer rotation watermark.
    pub fn epoch(&self) -> u64 {
        self.next_stamp
    }

    /// Reads a buffer back.
    ///
    /// # Errors
    ///
    /// [`SimError::UseAfterFree`] if the id was freed (or never existed).
    pub fn download(&self, id: BufId) -> SResult<&Buffer> {
        match self.slots.get(id) {
            Some(Slot::Live { buf, .. }) => Ok(buf),
            _ => Err(SimError::UseAfterFree {
                buf: id,
                what: "download".into(),
            }),
        }
    }

    /// Mutable access.
    ///
    /// # Errors
    ///
    /// [`SimError::UseAfterFree`] if the id was freed (or never existed).
    pub fn buffer_mut(&mut self, id: BufId) -> SResult<&mut Buffer> {
        match self.slots.get_mut(id) {
            Some(Slot::Live { buf, .. }) => Ok(buf),
            _ => Err(SimError::UseAfterFree {
                buf: id,
                what: "mutable access".into(),
            }),
        }
    }

    /// Infallible access for the kernel hot path: callers must have
    /// validated liveness at launch entry (as [`crate::launch`] does for
    /// every buffer argument).
    pub(crate) fn raw(&self, id: BufId) -> &Buffer {
        match &self.slots[id] {
            Slot::Live { buf, .. } => buf,
            Slot::Freed { .. } => panic!("raw access to freed buffer {id} (unvalidated launch)"),
        }
    }

    /// Infallible mutable access for the validated kernel commit path.
    pub(crate) fn raw_mut(&mut self, id: BufId) -> &mut Buffer {
        match &mut self.slots[id] {
            Slot::Live { buf, .. } => buf,
            Slot::Freed { .. } => panic!("raw access to freed buffer {id} (unvalidated launch)"),
        }
    }

    /// Bytes currently live (allocated and not freed).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// High-water mark of [`Self::live_bytes`] over the arena's lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// The memory counters so far (`hoisted` is an executor-side event and
    /// stays zero here).
    pub fn stats(&self) -> MemStats {
        MemStats {
            allocs: self.allocs,
            frees: self.frees,
            reuses: self.reuses,
            hoisted: 0,
            live_bytes: self.live_bytes,
            peak_bytes: self.peak_bytes,
        }
    }
}

/// An argument to a kernel launch.
#[derive(Debug, Clone)]
pub enum Arg {
    /// A global buffer.
    Buffer(BufId),
    /// A scalar.
    Scalar(Scalar),
}

/// Cost counters accumulated by one launch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Threads launched.
    pub threads: u64,
    /// Warp instruction issues.
    pub warp_instructions: u64,
    /// Global-memory transactions.
    pub global_transactions: u64,
    /// Bytes moved over the bus (transactions × transaction size).
    pub bus_bytes: u64,
    /// Bytes actually requested by threads.
    pub useful_bytes: u64,
    /// Local-memory accesses.
    pub local_accesses: u64,
    /// Barriers executed (per group).
    pub barriers: u64,
}

impl KernelStats {
    /// Coalescing efficiency: useful bytes / bus bytes (1.0 = perfect).
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.bus_bytes == 0 {
            1.0
        } else {
            self.useful_bytes as f64 / self.bus_bytes as f64
        }
    }

    /// A launch's counters: `threads`, and the sum of its per-site
    /// buckets for every other field.
    pub(crate) fn of_sites(threads: u64, sites: &[SiteStats]) -> KernelStats {
        let mut k = KernelStats {
            threads,
            ..KernelStats::default()
        };
        for s in sites {
            k.warp_instructions += s.warp_instructions;
            k.global_transactions += s.global_transactions;
            k.bus_bytes += s.bus_bytes;
            k.useful_bytes += s.useful_bytes;
            k.local_accesses += s.local_accesses;
            k.barriers += s.barriers;
        }
        k
    }

    /// Adds the counters of another launch into this one (used for
    /// per-kernel and whole-run aggregation).
    pub fn merge(&mut self, o: &KernelStats) {
        self.threads += o.threads;
        self.warp_instructions += o.warp_instructions;
        self.global_transactions += o.global_transactions;
        self.bus_bytes += o.bus_bytes;
        self.useful_bytes += o.useful_bytes;
        self.local_accesses += o.local_accesses;
        self.barriers += o.barriers;
    }

    /// Serialises to JSON (for trace archives).
    pub fn to_json(&self) -> futhark_trace::Json {
        use futhark_trace::Json;
        Json::obj(vec![
            ("threads", Json::U64(self.threads)),
            ("warp_instructions", Json::U64(self.warp_instructions)),
            ("global_transactions", Json::U64(self.global_transactions)),
            ("bus_bytes", Json::U64(self.bus_bytes)),
            ("useful_bytes", Json::U64(self.useful_bytes)),
            ("local_accesses", Json::U64(self.local_accesses)),
            ("barriers", Json::U64(self.barriers)),
        ])
    }

    /// Deserialises from JSON.
    pub fn from_json(j: &futhark_trace::Json) -> Option<KernelStats> {
        Some(KernelStats {
            threads: j.get("threads")?.as_u64()?,
            warp_instructions: j.get("warp_instructions")?.as_u64()?,
            global_transactions: j.get("global_transactions")?.as_u64()?,
            bus_bytes: j.get("bus_bytes")?.as_u64()?,
            useful_bytes: j.get("useful_bytes")?.as_u64()?,
            local_accesses: j.get("local_accesses")?.as_u64()?,
            barriers: j.get("barriers")?.as_u64()?,
        })
    }
}

/// Cost counters for one *source site* (a [`Prov`](futhark_core::Prov) set
/// from a kernel's provenance table). Every launch counts into one bucket
/// per site, and its [`KernelStats`] is the sum of the buckets plus
/// `threads`. Mirrors [`KernelStats`] minus `threads`, plus the
/// inactive-lane issue slots lost to divergence, which the aggregate does
/// not carry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SiteStats {
    /// Warp instruction issues attributed to this site.
    pub warp_instructions: u64,
    /// Issue slots executed by masked-off lanes of otherwise-active warps
    /// (SIMT divergence waste), scaled by instruction cost like
    /// `warp_instructions`.
    pub inactive_lane_instructions: u64,
    /// Global-memory transactions.
    pub global_transactions: u64,
    /// Bytes moved over the bus.
    pub bus_bytes: u64,
    /// Bytes actually requested by threads.
    pub useful_bytes: u64,
    /// Local-memory accesses.
    pub local_accesses: u64,
    /// Barriers executed (per group).
    pub barriers: u64,
    /// Modelled microseconds attributed to this site: each launch's busy
    /// time (total minus overhead) split across sites in proportion to
    /// their share of the launch's *limiting* counter.
    pub modelled_us: f64,
}

impl SiteStats {
    /// Whether every counter is zero (such sites are omitted from reports).
    pub fn is_zero(&self) -> bool {
        *self == SiteStats::default()
    }

    /// Adds another site's counters into this one.
    pub fn merge(&mut self, o: &SiteStats) {
        self.warp_instructions += o.warp_instructions;
        self.inactive_lane_instructions += o.inactive_lane_instructions;
        self.global_transactions += o.global_transactions;
        self.bus_bytes += o.bus_bytes;
        self.useful_bytes += o.useful_bytes;
        self.local_accesses += o.local_accesses;
        self.barriers += o.barriers;
        self.modelled_us += o.modelled_us;
    }

    /// Serialises to JSON (for trace archives).
    pub fn to_json(&self) -> futhark_trace::Json {
        use futhark_trace::Json;
        Json::obj(vec![
            ("warp_instructions", Json::U64(self.warp_instructions)),
            (
                "inactive_lane_instructions",
                Json::U64(self.inactive_lane_instructions),
            ),
            ("global_transactions", Json::U64(self.global_transactions)),
            ("bus_bytes", Json::U64(self.bus_bytes)),
            ("useful_bytes", Json::U64(self.useful_bytes)),
            ("local_accesses", Json::U64(self.local_accesses)),
            ("barriers", Json::U64(self.barriers)),
            ("modelled_us", Json::F64(self.modelled_us)),
        ])
    }

    /// Deserialises from JSON. `modelled_us` is optional (0.0 when
    /// absent) so traces written before the analysis layer still load.
    pub fn from_json(j: &futhark_trace::Json) -> Option<SiteStats> {
        Some(SiteStats {
            warp_instructions: j.get("warp_instructions")?.as_u64()?,
            inactive_lane_instructions: j.get("inactive_lane_instructions")?.as_u64()?,
            global_transactions: j.get("global_transactions")?.as_u64()?,
            bus_bytes: j.get("bus_bytes")?.as_u64()?,
            useful_bytes: j.get("useful_bytes")?.as_u64()?,
            local_accesses: j.get("local_accesses")?.as_u64()?,
            barriers: j.get("barriers")?.as_u64()?,
            modelled_us: match j.get("modelled_us") {
                Some(v) => v.as_f64()?,
                None => 0.0,
            },
        })
    }
}

/// A simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Out-of-bounds access in a kernel.
    OutOfBounds {
        /// Which kernel.
        kernel: String,
        /// Description.
        what: String,
    },
    /// Barrier reached by a divergent subset of a work-group.
    DivergentBarrier {
        /// Which kernel.
        kernel: String,
    },
    /// Scalar operator failure (type confusion, division by zero).
    Scalar(String),
    /// A while loop exceeded the iteration safety bound.
    RunawayLoop {
        /// Which kernel.
        kernel: String,
    },
    /// A local-memory buffer was sized with a negative element count
    /// (formerly clamped silently to zero).
    NegativeLocalSize {
        /// Which kernel.
        kernel: String,
        /// The requested element count.
        requested: i64,
    },
    /// Access through a [`BufId`] whose buffer was freed (the slot is
    /// poisoned, so the stale data cannot be read silently).
    UseAfterFree {
        /// The offending buffer id.
        buf: BufId,
        /// What kind of access hit it.
        what: String,
    },
    /// An allocation would exceed the device's global-memory capacity.
    OutOfMemory {
        /// Bytes the allocation asked for.
        requested: u64,
        /// Bytes live at the time.
        live: u64,
        /// The device capacity.
        capacity: u64,
    },
    /// A structurally invalid kernel artifact: an expression tape whose
    /// operand stack underflows or ends unbalanced. Unreachable from the
    /// compiler pipeline (decode validates its own output), but a
    /// hand-constructed or corrupted artifact must surface as an error a
    /// long-lived server can return, never a panic that kills the process.
    Malformed {
        /// Which kernel.
        kernel: String,
        /// What was wrong with it.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds { kernel, what } => {
                write!(f, "out of bounds in kernel `{kernel}`: {what}")
            }
            SimError::DivergentBarrier { kernel } => {
                write!(f, "divergent barrier in kernel `{kernel}`")
            }
            SimError::Scalar(m) => write!(f, "scalar fault: {m}"),
            SimError::RunawayLoop { kernel } => {
                write!(f, "runaway while-loop in kernel `{kernel}`")
            }
            SimError::NegativeLocalSize { kernel, requested } => {
                write!(
                    f,
                    "negative local-memory size {requested} in kernel `{kernel}`"
                )
            }
            SimError::UseAfterFree { buf, what } => {
                write!(f, "use after free of device buffer {buf} ({what})")
            }
            SimError::OutOfMemory {
                requested,
                live,
                capacity,
            } => write!(
                f,
                "out of device memory: requested {requested} bytes with \
                 {live} live of {capacity} capacity"
            ),
            SimError::Malformed { kernel, what } => {
                write!(f, "malformed kernel `{kernel}`: {what}")
            }
        }
    }
}

impl std::error::Error for SimError {}

type SResult<T> = Result<T, SimError>;

/// Timing model decomposition: the overhead and the three throughput
/// components for one launch with the given stats. The modelled launch
/// time is [`TimeBreakdown::total_us`].
pub fn kernel_time_breakdown(device: &DeviceProfile, stats: &KernelStats) -> TimeBreakdown {
    TimeBreakdown {
        overhead_us: device.launch_overhead_us,
        compute_us: device.compute_us(stats.warp_instructions as f64),
        memory_us: device.memory_us(stats.bus_bytes as f64),
        local_us: device.local_us(stats.local_accesses as f64),
    }
}

/// Timing model: microseconds for one launch with the given stats
/// (`overhead + max(compute, memory, local)`).
pub fn kernel_time_us(device: &DeviceProfile, stats: &KernelStats) -> f64 {
    kernel_time_breakdown(device, stats).total_us()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::*;
    use crate::tape::{DecodedKernel, RunOptions};

    /// Decodes `k` and launches it with the default run options.
    fn launch(
        device: &DeviceProfile,
        k: &Kernel,
        num_threads: u64,
        args: &[Arg],
        mem: &mut DeviceMemory,
    ) -> SResult<KernelStats> {
        let dk = DecodedKernel::decode(k)?;
        crate::tape::launch(device, &dk, num_threads, args, mem, &RunOptions::default())
            .map(|out| out.stats)
    }

    fn vecadd_kernel(stride: i64) -> Kernel {
        // out[i] = a[idx] + b[idx] with idx = i*stride (stride 1 coalesced).
        let idx = KExp::GlobalId.mul(KExp::i64(stride));
        Kernel {
            name: "vecadd".into(),
            params: vec![
                KParam::Buffer(ScalarType::F32),
                KParam::Buffer(ScalarType::F32),
                KParam::Buffer(ScalarType::F32),
            ],
            locals: vec![],
            num_regs: 2,
            num_priv: 0,
            prov_table: vec![],
            body: vec![
                KStm::GlobalRead {
                    var: 0,
                    buf: 0,
                    index: idx.clone(),
                },
                KStm::GlobalRead {
                    var: 1,
                    buf: 1,
                    index: idx.clone(),
                },
                KStm::GlobalWrite {
                    buf: 2,
                    index: idx,
                    value: KExp::BinOp(
                        futhark_core::BinOp::Add,
                        Box::new(KExp::Var(0)),
                        Box::new(KExp::Var(1)),
                    ),
                },
            ],
        }
    }

    #[test]
    fn vecadd_computes_and_is_coalesced() {
        let dev = DeviceProfile::gtx780();
        let mut mem = DeviceMemory::new();
        let n = 1024usize;
        let a = mem
            .upload(Buffer::F32((0..n).map(|i| i as f32).collect()))
            .unwrap();
        let b = mem.upload(Buffer::F32(vec![1.0; n])).unwrap();
        let c = mem.alloc(ScalarType::F32, n).unwrap();
        let stats = launch(
            &dev,
            &vecadd_kernel(1),
            n as u64,
            &[Arg::Buffer(a), Arg::Buffer(b), Arg::Buffer(c)],
            &mut mem,
        )
        .unwrap();
        let Buffer::F32(out) = mem.download(c).unwrap() else {
            panic!()
        };
        assert_eq!(out[10], 11.0);
        assert_eq!(out[1023], 1024.0);
        // Coalesced: each warp of 32 f32 reads = 128 bytes = 1 transaction.
        // 3 accesses × 32 warps = 96 transactions.
        assert_eq!(stats.global_transactions, 96);
        assert!(stats.coalescing_efficiency() > 0.99);
    }

    #[test]
    fn strided_access_multiplies_transactions() {
        let dev = DeviceProfile::gtx780();
        let stride = 32i64;
        let n = 1024usize;
        let total = n * stride as usize;
        let mut mem = DeviceMemory::new();
        let a = mem.upload(Buffer::F32(vec![2.0; total])).unwrap();
        let b = mem.upload(Buffer::F32(vec![3.0; total])).unwrap();
        let c = mem.alloc(ScalarType::F32, total).unwrap();
        let stats = launch(
            &dev,
            &vecadd_kernel(stride),
            n as u64,
            &[Arg::Buffer(a), Arg::Buffer(b), Arg::Buffer(c)],
            &mut mem,
        )
        .unwrap();
        // Every lane hits its own 128-byte segment: 32× the transactions.
        assert_eq!(stats.global_transactions, 96 * 32);
        assert!(stats.coalescing_efficiency() < 0.05);
    }

    #[test]
    fn local_memory_staging_with_barrier() {
        // Each thread writes its id to local memory, barriers, then reads
        // its neighbour's value (a rotation within the group).
        let dev = DeviceProfile::gtx780();
        let k = Kernel {
            name: "rotate".into(),
            params: vec![KParam::Buffer(ScalarType::I64)],
            locals: vec![(ScalarType::I64, KExp::GroupSize)],
            num_regs: 2,
            num_priv: 0,
            prov_table: vec![],
            body: vec![
                KStm::LocalWrite {
                    mem: 0,
                    index: KExp::LocalId,
                    value: KExp::GlobalId,
                },
                KStm::Barrier,
                KStm::Assign {
                    var: 0,
                    exp: KExp::LocalId.add(KExp::i64(1)).rem(KExp::GroupSize),
                },
                KStm::LocalRead {
                    var: 1,
                    mem: 0,
                    index: KExp::Var(0),
                },
                KStm::GlobalWrite {
                    buf: 0,
                    index: KExp::GlobalId,
                    value: KExp::Var(1),
                },
            ],
        };
        let mut mem = DeviceMemory::new();
        let n = 512usize;
        let out = mem.alloc(ScalarType::I64, n).unwrap();
        let stats = launch(&dev, &k, n as u64, &[Arg::Buffer(out)], &mut mem).unwrap();
        let Buffer::I64(v) = mem.download(out).unwrap() else {
            panic!()
        };
        assert_eq!(v[0], 1);
        assert_eq!(v[255], 0); // wraps within the first group of 256
        assert_eq!(v[256], 257);
        assert_eq!(stats.barriers, 2); // one per group
        assert!(stats.local_accesses >= 1024);
    }

    #[test]
    fn divergence_executes_both_sides() {
        // if (id % 2 == 0) out[id] = 1 else out[id] = 2.
        let dev = DeviceProfile::gtx780();
        let k = Kernel {
            name: "diverge".into(),
            params: vec![KParam::Buffer(ScalarType::I64)],
            locals: vec![],
            num_regs: 1,
            num_priv: 0,
            prov_table: vec![],
            body: vec![KStm::If {
                cond: KExp::Cmp(
                    futhark_core::CmpOp::Eq,
                    Box::new(KExp::GlobalId.rem(KExp::i64(2))),
                    Box::new(KExp::i64(0)),
                ),
                then_s: vec![KStm::GlobalWrite {
                    buf: 0,
                    index: KExp::GlobalId,
                    value: KExp::i64(1),
                }],
                else_s: vec![KStm::GlobalWrite {
                    buf: 0,
                    index: KExp::GlobalId,
                    value: KExp::i64(2),
                }],
            }],
        };
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(ScalarType::I64, 64).unwrap();
        launch(&dev, &k, 64, &[Arg::Buffer(out)], &mut mem).unwrap();
        let Buffer::I64(v) = mem.download(out).unwrap() else {
            panic!()
        };
        assert_eq!(v[0], 1);
        assert_eq!(v[1], 2);
        assert_eq!(v[63], 2);
    }

    #[test]
    fn for_loop_with_variant_bounds() {
        // out[id] = sum(0..id) via a per-thread loop; bounds diverge.
        let dev = DeviceProfile::gtx780();
        let k = Kernel {
            name: "tri".into(),
            params: vec![KParam::Buffer(ScalarType::I64)],
            locals: vec![],
            num_regs: 2,
            num_priv: 0,
            prov_table: vec![],
            body: vec![
                KStm::Assign {
                    var: 1,
                    exp: KExp::i64(0),
                },
                KStm::For {
                    var: 0,
                    bound: KExp::GlobalId,
                    body: vec![KStm::Assign {
                        var: 1,
                        exp: KExp::Var(1).add(KExp::Var(0)),
                    }],
                },
                KStm::GlobalWrite {
                    buf: 0,
                    index: KExp::GlobalId,
                    value: KExp::Var(1),
                },
            ],
        };
        let mut mem = DeviceMemory::new();
        let out = mem.alloc(ScalarType::I64, 16).unwrap();
        launch(&dev, &k, 16, &[Arg::Buffer(out)], &mut mem).unwrap();
        let Buffer::I64(v) = mem.download(out).unwrap() else {
            panic!()
        };
        assert_eq!(v[0], 0);
        assert_eq!(v[5], 10);
        assert_eq!(v[15], 105);
    }

    #[test]
    fn oob_is_reported() {
        let dev = DeviceProfile::gtx780();
        let mut mem = DeviceMemory::new();
        let small = mem.alloc(ScalarType::F32, 4).unwrap();
        let b = mem.alloc(ScalarType::F32, 4).unwrap();
        let c = mem.alloc(ScalarType::F32, 4).unwrap();
        let e = launch(
            &dev,
            &vecadd_kernel(1),
            64,
            &[Arg::Buffer(small), Arg::Buffer(b), Arg::Buffer(c)],
            &mut mem,
        )
        .unwrap_err();
        assert!(matches!(e, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn kernel_stats_invariants_hold_for_real_launches() {
        // Whatever the access pattern, the bus never moves fewer bytes
        // than the threads asked for, and efficiency stays in (0, 1].
        let dev = DeviceProfile::gtx780();
        for stride in [1i64, 7, 32] {
            let n = 256usize;
            let total = n * stride as usize;
            let mut mem = DeviceMemory::new();
            let a = mem.upload(Buffer::F32(vec![2.0; total])).unwrap();
            let b = mem.upload(Buffer::F32(vec![3.0; total])).unwrap();
            let c = mem.alloc(ScalarType::F32, total).unwrap();
            let stats = launch(
                &dev,
                &vecadd_kernel(stride),
                n as u64,
                &[Arg::Buffer(a), Arg::Buffer(b), Arg::Buffer(c)],
                &mut mem,
            )
            .unwrap();
            assert!(
                stats.useful_bytes <= stats.bus_bytes,
                "stride {stride}: useful {} > bus {}",
                stats.useful_bytes,
                stats.bus_bytes
            );
            let eff = stats.coalescing_efficiency();
            assert!(
                eff > 0.0 && eff <= 1.0,
                "stride {stride}: efficiency {eff} outside (0, 1]"
            );
        }
        // No memory traffic counts as perfectly coalesced.
        assert_eq!(KernelStats::default().coalescing_efficiency(), 1.0);
    }

    #[test]
    fn kernel_stats_merge_sums_every_field() {
        let a = KernelStats {
            threads: 100,
            warp_instructions: 40,
            global_transactions: 9,
            bus_bytes: 9 * 128,
            useful_bytes: 800,
            local_accesses: 12,
            barriers: 2,
        };
        let b = KernelStats {
            threads: 33,
            warp_instructions: 7,
            global_transactions: 4,
            bus_bytes: 4 * 128,
            useful_bytes: 300,
            local_accesses: 5,
            barriers: 1,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.threads, a.threads + b.threads);
        assert_eq!(
            m.warp_instructions,
            a.warp_instructions + b.warp_instructions
        );
        assert_eq!(
            m.global_transactions,
            a.global_transactions + b.global_transactions
        );
        assert_eq!(m.bus_bytes, a.bus_bytes + b.bus_bytes);
        assert_eq!(m.useful_bytes, a.useful_bytes + b.useful_bytes);
        assert_eq!(m.local_accesses, a.local_accesses + b.local_accesses);
        assert_eq!(m.barriers, a.barriers + b.barriers);
        // Merging the identity changes nothing.
        let mut id = a;
        id.merge(&KernelStats::default());
        assert_eq!(id, a);
    }

    #[test]
    fn kernel_stats_round_trip_through_json() {
        let s = KernelStats {
            threads: 1024,
            warp_instructions: 96,
            global_transactions: 96,
            bus_bytes: 96 * 128,
            useful_bytes: 12288,
            local_accesses: 7,
            barriers: 3,
        };
        let back = KernelStats::from_json(&s.to_json()).expect("decodes");
        assert_eq!(back, s);
    }

    #[test]
    fn timing_model_prefers_coalesced() {
        let dev = DeviceProfile::gtx780();
        let a = KernelStats {
            threads: 1000,
            warp_instructions: 1000,
            global_transactions: 100,
            bus_bytes: 100 * 128,
            useful_bytes: 100 * 128,
            local_accesses: 0,
            barriers: 0,
        };
        let mut b = a;
        b.global_transactions = 3200;
        b.bus_bytes = 3200 * 128;
        assert!(kernel_time_us(&dev, &b) > kernel_time_us(&dev, &a));
    }

    #[test]
    fn freed_buffer_is_poisoned_not_silently_readable() {
        let mut mem = DeviceMemory::new();
        let id = mem.upload(Buffer::I64(vec![1, 2, 3])).unwrap();
        mem.free(id);
        match mem.download(id) {
            Err(SimError::UseAfterFree { buf, .. }) => assert_eq!(buf, id),
            other => panic!("expected UseAfterFree, got {other:?}"),
        }
        match mem.buffer_mut(id) {
            Err(SimError::UseAfterFree { buf, .. }) => assert_eq!(buf, id),
            other => panic!("expected UseAfterFree, got {other:?}"),
        }
        // And a never-allocated id reports the same structured error.
        assert!(matches!(
            mem.download(999),
            Err(SimError::UseAfterFree { buf: 999, .. })
        ));
    }

    #[test]
    fn reuse_recycles_the_slot_and_zeroes_the_data() {
        let mut mem = DeviceMemory::new();
        let a = mem.upload(Buffer::I64(vec![7, 8, 9])).unwrap();
        let a_stamp = mem.stamp(a).unwrap();
        mem.free(a);
        // Incompatible shape: no reuse.
        let b = mem.alloc(ScalarType::I64, 4).unwrap();
        assert_ne!(b, a);
        // Compatible shape: the dead slot is recycled, with fresh zeroes
        // (never the poisoned old data) and a fresh stamp.
        let c = mem.alloc(ScalarType::I64, 3).unwrap();
        assert_eq!(c, a);
        assert_eq!(mem.download(c).unwrap(), &Buffer::zeros(ScalarType::I64, 3));
        assert!(mem.stamp(c).unwrap() > a_stamp);
        let s = mem.stats();
        assert_eq!((s.allocs, s.frees, s.reuses), (3, 1, 1));
    }

    #[test]
    fn live_and_peak_bytes_track_the_footprint() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(ScalarType::I64, 100).unwrap(); // 800 bytes
        let _b = mem.alloc(ScalarType::F32, 50).unwrap(); // 200 bytes
        assert_eq!(mem.live_bytes(), 1000);
        assert_eq!(mem.peak_bytes(), 1000);
        mem.free(a);
        assert_eq!(mem.live_bytes(), 200);
        assert_eq!(mem.peak_bytes(), 1000);
        // Double free is a no-op, not double counting.
        mem.free(a);
        assert_eq!(mem.live_bytes(), 200);
        assert_eq!(mem.stats().frees, 1);
        // Reuse re-charges the live footprint.
        let _c = mem.alloc(ScalarType::I64, 100).unwrap();
        assert_eq!(mem.live_bytes(), 1000);
    }

    #[test]
    fn capacity_exhaustion_is_a_structured_error() {
        let mut mem = DeviceMemory::with_capacity(1024);
        let a = mem.alloc(ScalarType::I64, 100).unwrap(); // 800 of 1024
        let e = mem.alloc(ScalarType::I64, 100).unwrap_err();
        match e {
            SimError::OutOfMemory {
                requested,
                live,
                capacity,
            } => {
                assert_eq!((requested, live, capacity), (800, 800, 1024));
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        // Freeing makes room again.
        mem.free(a);
        assert!(mem.alloc(ScalarType::I64, 128).is_ok());
        // The profile constructor wires the device capacity through.
        let dev = DeviceProfile::gtx780();
        let mem = DeviceMemory::from_profile(&dev);
        assert_eq!(mem.capacity, Some(dev.global_mem_bytes));
    }
}

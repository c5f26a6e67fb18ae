//! The plan executor: runs a [`GpuPlan`] against a simulated device and
//! produces both the program results and a [`PerfReport`].
//!
//! Arrays live in device memory as [`DArr`]s carrying a *symbolic layout*
//! (`perm`): transposition composes symbolically and is only materialised
//! when a consumer requests a specific physical layout — the paper's
//! representation of arrays "as a symbolic composition of affine
//! transformations" (Section 5.2). Materialised layouts are cached per
//! buffer, so a transposition inserted for coalescing is paid once even
//! inside host loops.

use crate::device::DeviceProfile;
use crate::kernel::Kernel;
use crate::plan::{ArgSpec, GpuPlan, HBody, HStm, LaunchKind, LaunchSpec, StealKind};
use crate::sim::{
    self, Arg, BufId, DeviceMemory, KernelStats, Limiter, MemEvent, MemOp, MemStats, SimError,
    SiteStats, TimeBreakdown,
};
use crate::tape::{DecodedKernel, RunOptions};
use futhark_core::traverse::free_in_exp;
use futhark_core::{
    ArrayVal, Buffer, Exp, Name, PatElem, Program, Scalar, ScalarType, Size, SubExp, Type, Value,
};
use futhark_interp::{InterpError, Interpreter};
use futhark_trace::Json;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Host execution cost constants (documented substitutions: a ~1 GHz
/// sequential core for interpreter fallbacks, PCIe-class transfers).
const HOST_US_PER_OP: f64 = 0.002;
const PCIE_GBPS: f64 = 12.0;

/// The distinct buffers backing a merge-value vector.
fn merge_bufs(merge: &[HVal]) -> Vec<BufId> {
    let mut out = Vec::new();
    for v in merge {
        if let HVal::Array(d) = v {
            if !out.contains(&d.buf) {
                out.push(d.buf);
            }
        }
    }
    out
}

/// A short tag naming the construct an interpreter fallback executed (for
/// timeline attribution).
fn exp_tag(e: &Exp) -> &'static str {
    use futhark_core::Soac;
    match e {
        Exp::Soac(s) => match s {
            Soac::Map { .. } => "soac.map",
            Soac::Scan { .. } => "soac.scan",
            Soac::Reduce { .. } => "soac.reduce",
            Soac::Redomap { .. } => "soac.redomap",
            Soac::Scatter { .. } => "soac.scatter",
            Soac::StreamMap { .. } => "soac.stream_map",
            Soac::StreamRed { .. } => "soac.stream_red",
            Soac::StreamSeq { .. } => "soac.stream_seq",
        },
        Exp::Apply { .. } => "apply",
        Exp::Loop { .. } => "loop",
        Exp::If { .. } => "if",
        _ => "host_exp",
    }
}

/// A device array: a buffer plus logical shape and physical layout.
#[derive(Debug, Clone, PartialEq)]
pub struct DArr {
    /// The backing buffer.
    pub buf: BufId,
    /// Logical shape.
    pub shape: Vec<usize>,
    /// Element type.
    pub elem: ScalarType,
    /// Physical layout: `perm[p]` is the logical dimension stored at
    /// physical position `p`. Empty means row-major (identity).
    pub perm: Vec<usize>,
}

impl DArr {
    fn elems(&self) -> usize {
        self.shape.iter().product()
    }

    fn bytes(&self) -> u64 {
        (self.elems() * self.elem.byte_size()) as u64
    }

    fn is_row_major(&self) -> bool {
        self.perm.is_empty() || self.perm.iter().enumerate().all(|(i, &p)| i == p)
    }
}

/// A host value.
#[derive(Debug, Clone)]
enum HVal {
    Scalar(Scalar),
    Array(DArr),
}

/// One kernel launch, as it appears in the execution timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchRecord {
    /// Kernel name (e.g. `segmap_1`).
    pub kernel: String,
    /// Number of work-groups dispatched.
    pub num_groups: u64,
    /// Work-group (thread-block) size.
    pub group_size: u64,
    /// Total threads launched.
    pub num_threads: u64,
    /// Cost counters of this launch alone.
    pub stats: KernelStats,
    /// Modelled duration, microseconds.
    pub us: f64,
    /// Full time decomposition of this launch (`None` only for traces
    /// recorded before the analysis layer existed; fresh runs always
    /// record it, and `breakdown.total_us() == us` bit-for-bit).
    pub breakdown: Option<TimeBreakdown>,
}

/// One entry of the ordered execution timeline. Every modelled-time
/// increment of a run is attributed to exactly one event, so the event
/// durations sum to [`PerfReport::total_us`].
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineEvent {
    /// A kernel launch.
    Launch(LaunchRecord),
    /// A device builtin (transpose, iota, replicate, copy, concat, …).
    DeviceOp {
        /// Operation tag (`transpose`, `iota`, `copy`, `combine`, …).
        what: String,
        /// Bytes moved.
        bytes: u64,
        /// Modelled duration, microseconds.
        us: f64,
    },
    /// An interpreter fallback (sequential host execution + transfers).
    Fallback {
        /// Tag of the unsupported construct (`soac`, `apply`, `loop`, …).
        what: String,
        /// Interpreter work units executed.
        work: u64,
        /// Modelled duration, microseconds.
        us: f64,
    },
    /// A host synchronisation point (device→host scalar read, host-side
    /// in-place update).
    Sync {
        /// Tag (`host_read`, `host_update`).
        what: String,
        /// Modelled duration, microseconds.
        us: f64,
    },
    /// A device-memory event (alloc/reuse/free/steal/hoist/rotate) with
    /// byte size, live-footprint reading and owning source site. Memory
    /// bookkeeping is instantaneous in the timing model, so these carry
    /// no duration.
    Mem(MemEvent),
}

impl TimelineEvent {
    /// The modelled duration of the event, microseconds.
    pub fn us(&self) -> f64 {
        match self {
            TimelineEvent::Launch(l) => l.us,
            TimelineEvent::DeviceOp { us, .. }
            | TimelineEvent::Fallback { us, .. }
            | TimelineEvent::Sync { us, .. } => *us,
            TimelineEvent::Mem(_) => 0.0,
        }
    }

    /// Serialises to JSON (tagged by a `kind` field).
    pub fn to_json(&self) -> Json {
        match self {
            TimelineEvent::Launch(l) => {
                let mut fields = vec![
                    ("kind".to_string(), Json::Str("launch".into())),
                    ("kernel".to_string(), Json::Str(l.kernel.clone())),
                    ("num_groups".to_string(), Json::U64(l.num_groups)),
                    ("group_size".to_string(), Json::U64(l.group_size)),
                    ("num_threads".to_string(), Json::U64(l.num_threads)),
                    ("stats".to_string(), l.stats.to_json()),
                    ("us".to_string(), Json::F64(l.us)),
                ];
                if let Some(b) = &l.breakdown {
                    fields.push(("breakdown".to_string(), b.to_json()));
                }
                Json::Obj(fields)
            }
            TimelineEvent::DeviceOp { what, bytes, us } => Json::obj(vec![
                ("kind", Json::Str("device_op".into())),
                ("what", Json::Str(what.clone())),
                ("bytes", Json::U64(*bytes)),
                ("us", Json::F64(*us)),
            ]),
            TimelineEvent::Fallback { what, work, us } => Json::obj(vec![
                ("kind", Json::Str("fallback".into())),
                ("what", Json::Str(what.clone())),
                ("work", Json::U64(*work)),
                ("us", Json::F64(*us)),
            ]),
            TimelineEvent::Sync { what, us } => Json::obj(vec![
                ("kind", Json::Str("sync".into())),
                ("what", Json::Str(what.clone())),
                ("us", Json::F64(*us)),
            ]),
            TimelineEvent::Mem(m) => {
                let mut j = m.to_json();
                if let Json::Obj(fields) = &mut j {
                    fields.insert(0, ("kind".to_string(), Json::Str("mem".into())));
                }
                j
            }
        }
    }

    /// Deserialises from JSON. The launch `breakdown` is optional so
    /// traces written before the analysis layer still load (as `None`).
    pub fn from_json(j: &Json) -> Option<TimelineEvent> {
        match j.get("kind")?.as_str()? {
            "launch" => Some(TimelineEvent::Launch(LaunchRecord {
                kernel: j.get("kernel")?.as_str()?.to_string(),
                num_groups: j.get("num_groups")?.as_u64()?,
                group_size: j.get("group_size")?.as_u64()?,
                num_threads: j.get("num_threads")?.as_u64()?,
                stats: KernelStats::from_json(j.get("stats")?)?,
                us: j.get("us")?.as_f64()?,
                breakdown: match j.get("breakdown") {
                    Some(b) => Some(TimeBreakdown::from_json(b)?),
                    None => None,
                },
            })),
            "device_op" => Some(TimelineEvent::DeviceOp {
                what: j.get("what")?.as_str()?.to_string(),
                bytes: j.get("bytes")?.as_u64()?,
                us: j.get("us")?.as_f64()?,
            }),
            "fallback" => Some(TimelineEvent::Fallback {
                what: j.get("what")?.as_str()?.to_string(),
                work: j.get("work")?.as_u64()?,
                us: j.get("us")?.as_f64()?,
            }),
            "sync" => Some(TimelineEvent::Sync {
                what: j.get("what")?.as_str()?.to_string(),
                us: j.get("us")?.as_f64()?,
            }),
            "mem" => Some(TimelineEvent::Mem(MemEvent::from_json(j)?)),
            _ => None,
        }
    }
}

/// Accumulated performance data for one program run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Total modelled time, microseconds.
    pub total_us: f64,
    /// Time spent in kernels (including launch overhead).
    pub kernel_us: f64,
    /// Time in device builtins (transposes, copies, iota, …).
    pub device_op_us: f64,
    /// Time in interpreter fallbacks (modelled as sequential host code).
    pub fallback_us: f64,
    /// Number of kernel launches.
    pub launches: u64,
    /// Number of layout materialisations (transposes) performed.
    pub transposes: u64,
    /// Aggregated kernel statistics.
    pub stats: KernelStats,
    /// Per-kernel breakdown: name → (launches, total µs, stats). Ordered,
    /// so reports and serialised traces are deterministic.
    pub per_kernel: BTreeMap<String, (u64, f64, KernelStats)>,
    /// The ordered execution timeline (one event per modelled-time
    /// increment; event durations sum to `total_us`).
    pub timeline: Vec<TimelineEvent>,
    /// Per-source-site counters, keyed by the site's line set (e.g. `"4"`,
    /// `"4,7"`, or `"?"` for unattributed work). Every run fills it, and
    /// summed over its sites each counter `stats` shares with
    /// [`SiteStats`] equals `stats`' own. Each site's `modelled_us` is
    /// its share of every launch's busy time, summed in launch order.
    pub per_site: BTreeMap<String, SiteStats>,
    /// Device-memory counters for the run: allocations, frees, slot and
    /// in-place reuses, hoisted writes, and the live/peak byte footprint.
    pub mem: MemStats,
}

impl PerfReport {
    /// Total time in milliseconds (the unit of the paper's Table 1).
    pub fn total_ms(&self) -> f64 {
        self.total_us / 1e3
    }

    /// Kernels ranked by total modelled time, descending (ties broken by
    /// name, so the order is deterministic).
    pub fn kernels_by_time(&self) -> Vec<(&str, &(u64, f64, KernelStats))> {
        let mut v: Vec<_> = self
            .per_kernel
            .iter()
            .map(|(k, e)| (k.as_str(), e))
            .collect();
        v.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// Per-kernel summed time decompositions, merged from the per-launch
    /// breakdowns on the timeline. Launches without a recorded breakdown
    /// (traces predating the analysis layer) contribute nothing, so the
    /// map can be empty for old traces.
    pub fn kernel_breakdowns(&self) -> BTreeMap<String, TimeBreakdown> {
        let mut m: BTreeMap<String, TimeBreakdown> = BTreeMap::new();
        for e in &self.timeline {
            if let TimelineEvent::Launch(l) = e {
                if let Some(b) = &l.breakdown {
                    m.entry(l.kernel.clone()).or_default().merge(b);
                }
            }
        }
        m
    }

    /// The memory-timeline events, in execution order.
    pub fn mem_events(&self) -> impl Iterator<Item = &MemEvent> {
        self.timeline.iter().filter_map(|e| match e {
            TimelineEvent::Mem(m) => Some(m),
            _ => None,
        })
    }

    /// The source site owning the peak footprint: the site of the first
    /// memory event whose live-bytes reading reaches the curve's maximum,
    /// together with that maximum. `None` when no memory events were
    /// recorded (old traces).
    pub fn peak_site(&self) -> Option<(&str, u64)> {
        let peak = self.mem_events().map(|m| m.live_bytes).max()?;
        self.mem_events()
            .find(|m| m.live_bytes == peak)
            .map(|m| (m.site.as_str(), peak))
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total_us", Json::F64(self.total_us)),
            ("kernel_us", Json::F64(self.kernel_us)),
            ("device_op_us", Json::F64(self.device_op_us)),
            ("fallback_us", Json::F64(self.fallback_us)),
            ("launches", Json::U64(self.launches)),
            ("transposes", Json::U64(self.transposes)),
            ("stats", self.stats.to_json()),
            (
                "per_kernel",
                Json::Obj(
                    self.per_kernel
                        .iter()
                        .map(|(k, (n, us, st))| {
                            (
                                k.clone(),
                                Json::obj(vec![
                                    ("launches", Json::U64(*n)),
                                    ("us", Json::F64(*us)),
                                    ("stats", st.to_json()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "timeline",
                Json::Arr(self.timeline.iter().map(TimelineEvent::to_json).collect()),
            ),
            ("mem", self.mem.to_json()),
            (
                "per_site",
                Json::Obj(
                    self.per_site
                        .iter()
                        .map(|(k, s)| (k.clone(), s.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserialises from JSON. Keys it does not know are ignored, such as
    /// the uniform-path tallies older traces carry.
    pub fn from_json(j: &Json) -> Option<PerfReport> {
        let mut per_kernel = BTreeMap::new();
        for (k, e) in j.get("per_kernel")?.as_obj()? {
            per_kernel.insert(
                k.clone(),
                (
                    e.get("launches")?.as_u64()?,
                    e.get("us")?.as_f64()?,
                    KernelStats::from_json(e.get("stats")?)?,
                ),
            );
        }
        let timeline = j
            .get("timeline")?
            .as_arr()?
            .iter()
            .map(TimelineEvent::from_json)
            .collect::<Option<Vec<_>>>()?;
        // `per_site` is optional: traces from before every run counted per
        // site may lack it.
        let mut per_site = BTreeMap::new();
        if let Some(ps) = j.get("per_site") {
            for (k, s) in ps.as_obj()? {
                per_site.insert(k.clone(), SiteStats::from_json(s)?);
            }
        }
        // `mem` is optional for the same reason: traces predating the
        // memory planner lack it. A malformed one is rejected.
        let mem = match j.get("mem") {
            Some(m) => MemStats::from_json(m)?,
            None => MemStats::default(),
        };
        Some(PerfReport {
            total_us: j.get("total_us")?.as_f64()?,
            kernel_us: j.get("kernel_us")?.as_f64()?,
            device_op_us: j.get("device_op_us")?.as_f64()?,
            fallback_us: j.get("fallback_us")?.as_f64()?,
            launches: j.get("launches")?.as_u64()?,
            transposes: j.get("transposes")?.as_u64()?,
            stats: KernelStats::from_json(j.get("stats")?)?,
            per_kernel,
            timeline,
            per_site,
            mem,
        })
    }
}

/// An execution failure.
#[derive(Debug)]
pub enum ExecError {
    /// Simulator fault.
    Sim(SimError),
    /// Interpreter fault in a host fallback.
    Interp(InterpError),
    /// Plan-level inconsistency.
    Plan(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Sim(e) => write!(f, "{e}"),
            ExecError::Interp(e) => write!(f, "{e}"),
            ExecError::Plan(m) => write!(f, "plan error: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> Self {
        ExecError::Sim(e)
    }
}

impl From<InterpError> for ExecError {
    fn from(e: InterpError) -> Self {
        ExecError::Interp(e)
    }
}

type EResult<T> = Result<T, ExecError>;

/// Every kernel of a [`GpuPlan`], decoded once for execution: the plan's
/// compile-time artifact for the simulator, the counterpart of the
/// paper's kernels, which are generated ahead of time and only launched
/// by the host code. It is built eagerly, so it also covers kernels a run
/// never launches, and it is immutable: concurrent runs of one plan share
/// it. [`run`] takes it beside its plan.
#[derive(Debug, Clone)]
pub struct DecodedPlan {
    /// One per entry of [`GpuPlan::kernels`], indexed like
    /// [`LaunchSpec::kernel`].
    kernels: Box<[DecodedKernel]>,
    /// The stage-2 fold kernel of every [`HStm::Combine`], including
    /// those nested in host loops, `while` conditions and branches, in
    /// plan order. Each is named after its stage-1 kernel, so names are
    /// unique within a plan.
    folds: Box<[DecodedKernel]>,
}

/// A kernel decoder: [`DecodedKernel::decode`] or
/// [`DecodedKernel::reference`].
type Decode = fn(&Kernel) -> Result<DecodedKernel, SimError>;

impl DecodedPlan {
    /// Decodes every launch kernel and every fold kernel of `plan` for
    /// the warp engine ([`DecodedKernel::decode`]).
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of the first kernel the simulator's static
    /// model rejects (it names the kernel), or [`SimError::Malformed`] if
    /// two fold kernels share a name.
    pub fn decode(plan: &GpuPlan) -> Result<DecodedPlan, SimError> {
        Self::decode_with(plan, DecodedKernel::decode)
    }

    /// Decodes every kernel of `plan` for the per-lane reference engine
    /// ([`DecodedKernel::reference`]). Only tests and the fuzz oracle
    /// call it.
    ///
    /// # Errors
    ///
    /// As [`DecodedPlan::decode`].
    pub fn reference(plan: &GpuPlan) -> Result<DecodedPlan, SimError> {
        Self::decode_with(plan, DecodedKernel::reference)
    }

    /// Decodes every kernel of `plan` with `decode`.
    fn decode_with(plan: &GpuPlan, decode: Decode) -> Result<DecodedPlan, SimError> {
        fn folds(b: &HBody, decode: Decode, out: &mut Vec<DecodedKernel>) -> Result<(), SimError> {
            for stm in &b.stms {
                match stm {
                    HStm::Combine { kernel, .. } => {
                        if out.iter().any(|d| d.name == kernel.name) {
                            return Err(SimError::Malformed {
                                kernel: kernel.name.clone(),
                                what: "two fold kernels share this name".into(),
                            });
                        }
                        out.push(decode(kernel)?);
                    }
                    HStm::Loop {
                        while_cond, body, ..
                    } => {
                        if let Some(c) = while_cond {
                            folds(c, decode, out)?;
                        }
                        folds(body, decode, out)?;
                    }
                    HStm::If { then_b, else_b, .. } => {
                        folds(then_b, decode, out)?;
                        folds(else_b, decode, out)?;
                    }
                    HStm::Direct(_)
                    | HStm::Launch { .. }
                    | HStm::Free { .. }
                    | HStm::Alloc { .. } => {}
                }
            }
            Ok(())
        }
        let mut kernels = Vec::with_capacity(plan.kernels.len());
        for k in &plan.kernels {
            kernels.push(decode(k)?);
        }
        let mut fold_kernels = Vec::new();
        folds(&plan.body, decode, &mut fold_kernels)?;
        Ok(DecodedPlan {
            kernels: kernels.into_boxed_slice(),
            folds: fold_kernels.into_boxed_slice(),
        })
    }

    /// The decoded launch kernels, indexed like [`GpuPlan::kernels`].
    pub fn kernels(&self) -> &[DecodedKernel] {
        &self.kernels
    }

    /// The decoded stage-2 fold kernels, in plan order.
    pub fn folds(&self) -> &[DecodedKernel] {
        &self.folds
    }
}

/// Runs a compiled plan on the given device profile on `opts.threads`
/// host worker threads. Results and every counter of the [`PerfReport`],
/// per-site ones included, are bit-identical at every thread count.
///
/// `decoded` is the plan's kernels, decoded once when it was compiled
/// ([`DecodedPlan::decode`]); a run only reads it, and its form picks the
/// engine every launch runs on. `prog` is the original (flattened)
/// program: interpreter fallbacks evaluate fragments of it.
///
/// # Errors
///
/// Returns an [`ExecError`] on simulator faults or malformed plans,
/// including decoded kernels that do not belong to `plan`.
pub fn run(
    plan: &GpuPlan,
    decoded: &DecodedPlan,
    prog: &Program,
    device: &DeviceProfile,
    args: &[Value],
    opts: &RunOptions,
) -> EResult<(Vec<Value>, PerfReport)> {
    if decoded.kernels.len() != plan.kernels.len() {
        return Err(ExecError::Plan(format!(
            "{} decoded kernels for a plan of {}",
            decoded.kernels.len(),
            plan.kernels.len()
        )));
    }
    let mut arena = DeviceMemory::from_profile(device);
    // The memory timeline is always recorded: the bookkeeping is pure
    // observation (no feedback into timing or results), and the events
    // make `peak_bytes` attributable in every trace.
    arena.enable_event_log();
    let mut ex = Executor {
        plan,
        prog,
        device,
        mem: arena,
        env: HashMap::new(),
        report: PerfReport::default(),
        layout_cache: HashMap::new(),
        decoded,
        buf_sites: HashMap::new(),
        opts: *opts,
        hoisted: 0,
        steals: 0,
        loop_watermarks: Vec::new(),
    };
    if args.len() != plan.params.len() {
        return Err(ExecError::Plan(format!(
            "expected {} arguments, got {}",
            plan.params.len(),
            args.len()
        )));
    }
    // Bind parameters (and implicit sizes, like the interpreter).
    for (p, a) in plan.params.iter().zip(args) {
        let hv = ex.upload_value(a)?;
        ex.env.insert(p.name.clone(), hv);
    }
    for (p, a) in plan.params.iter().zip(args) {
        if let (Type::Array(at), Value::Array(arr)) = (&p.ty, a) {
            for (d, &actual) in at.dims.iter().zip(&arr.shape) {
                if let Size::Var(v) = d {
                    ex.env
                        .entry(v.clone())
                        .or_insert(HVal::Scalar(Scalar::I64(actual as i64)));
                }
            }
        }
    }
    // Parameter uploads belong to no source line.
    ex.flush_mem("args");
    let results = ex.body(&plan.body)?;
    ex.flush_mem("?");
    let values = results
        .into_iter()
        .map(|hv| ex.download_value(&hv))
        .collect::<EResult<Vec<_>>>()?;
    let mut mem = ex.mem.stats();
    // A steal is an in-place reuse of the consumed buffer; a hoisted write
    // reuses the pre-allocated destination. Both are executor-side events
    // the arena cannot see.
    mem.reuses += ex.steals;
    mem.hoisted = ex.hoisted;
    ex.report.mem = mem;
    Ok((values, ex.report))
}

/// One run of a plan. Everything derived from the plan alone lives in the
/// plan and its [`DecodedPlan`], built at compile time; the executor
/// holds only what depends on the run's arguments.
struct Executor<'a> {
    plan: &'a GpuPlan,
    prog: &'a Program,
    device: &'a DeviceProfile,
    mem: DeviceMemory,
    /// Host bindings: scalars and device arrays.
    env: HashMap<Name, HVal>,
    report: PerfReport,
    /// Materialised layouts of this run's buffers, by (buffer, layout).
    layout_cache: HashMap<(BufId, Vec<usize>), BufId>,
    /// The plan's kernels and fold kernels, decoded at compile time; each
    /// carries its source-site key.
    decoded: &'a DecodedPlan,
    /// The source site each live buffer was last allocated (or stolen)
    /// at — frees look their attribution up here.
    buf_sites: HashMap<BufId, String>,
    /// The run's execution options, passed to every kernel launch.
    opts: RunOptions,
    /// Hoisted-destination writes performed (planner `write_into` hits).
    hoisted: u64,
    /// In-place buffer steals performed (planner `steal` verdicts that
    /// passed their runtime guards).
    steals: u64,
    /// Allocation-epoch watermarks of the active loop nest, pushed at
    /// loop entry: double-buffer rotation (and `LoopRotate` steals) only
    /// ever touch buffers allocated inside the current loop.
    loop_watermarks: Vec<u64>,
}

impl<'a> Executor<'a> {
    /// The decoded kernel of a launch, checked against the plan's.
    fn launch_kernel(&self, spec: &LaunchSpec) -> EResult<&'a DecodedKernel> {
        let decoded: &'a DecodedPlan = self.decoded;
        match (
            decoded.kernels.get(spec.kernel),
            self.plan.kernels.get(spec.kernel),
        ) {
            (Some(dk), Some(k)) if dk.name == k.name => Ok(dk),
            _ => Err(ExecError::Plan(format!(
                "launch of kernel {} has no matching decoded kernel",
                spec.kernel
            ))),
        }
    }

    /// The source site a statement's memory traffic is attributed to.
    fn stm_site(&self, stm: &HStm) -> Cow<'a, str> {
        let decoded: &'a DecodedPlan = self.decoded;
        match stm {
            HStm::Direct(s) => Cow::Owned(s.prov.key()),
            HStm::Launch { spec, .. } => match decoded.kernels.get(spec.kernel) {
                Some(dk) => Cow::Borrowed(&dk.site),
                None => Cow::Borrowed("?"),
            },
            _ => Cow::Borrowed("?"),
        }
    }

    /// Drains the arena's raw event log onto the timeline, attributing
    /// allocations (and reuses) to `site` and frees to the site that owns
    /// the buffer. `relabel_free` turns plain frees into another op
    /// (rotation frees at loop step boundaries).
    fn flush_mem_as(&mut self, site: &str, relabel_free: Option<MemOp>) {
        for (op, buf, bytes, live_bytes) in self.mem.take_events() {
            let (op, site) = match op {
                MemOp::Alloc | MemOp::Reuse => {
                    self.buf_sites.insert(buf, site.to_string());
                    (op, site.to_string())
                }
                MemOp::Free => (
                    relabel_free.unwrap_or(MemOp::Free),
                    self.buf_sites
                        .get(&buf)
                        .cloned()
                        .unwrap_or_else(|| "?".to_string()),
                ),
                other => (
                    other,
                    self.buf_sites
                        .get(&buf)
                        .cloned()
                        .unwrap_or_else(|| "?".to_string()),
                ),
            };
            self.report.timeline.push(TimelineEvent::Mem(MemEvent {
                op,
                buf,
                bytes,
                live_bytes,
                site,
            }));
        }
    }

    fn flush_mem(&mut self, site: &str) {
        self.flush_mem_as(site, None);
    }

    /// Records an executor-side memory event (steal or hoisted write) that
    /// the arena cannot see; the buffer's ownership moves to `site`.
    fn push_mem_event(&mut self, op: MemOp, buf: BufId, bytes: u64, site: String) {
        self.buf_sites.insert(buf, site.clone());
        self.report.timeline.push(TimelineEvent::Mem(MemEvent {
            op,
            buf,
            bytes,
            live_bytes: self.mem.live_bytes(),
            site,
        }));
    }

    fn upload_value(&mut self, v: &Value) -> EResult<HVal> {
        Ok(match v {
            Value::Scalar(s) => HVal::Scalar(*s),
            Value::Array(a) => {
                let buf = self.mem.upload(a.data.clone())?;
                HVal::Array(DArr {
                    buf,
                    shape: a.shape.clone(),
                    elem: a.elem_type(),
                    perm: Vec::new(),
                })
            }
        })
    }

    fn download_value(&mut self, hv: &HVal) -> EResult<Value> {
        Ok(match hv {
            HVal::Scalar(s) => Value::Scalar(*s),
            HVal::Array(d) => Value::Array(self.download_arr(d)?),
        })
    }

    fn download_arr(&mut self, d: &DArr) -> EResult<ArrayVal> {
        let data = self.mem.download(d.buf)?.clone();
        Ok(if d.is_row_major() {
            ArrayVal::new(d.shape.clone(), data)
        } else {
            // The buffer is stored permuted; undo it.
            let phys_shape: Vec<usize> = d.perm.iter().map(|&l| d.shape[l]).collect();
            let phys = ArrayVal::new(phys_shape, data);
            // Physical dim p holds logical dim perm[p]; to get logical
            // order we rearrange with the inverse permutation.
            let mut inv = vec![0usize; d.perm.len()];
            for (p, &l) in d.perm.iter().enumerate() {
                inv[l] = p;
            }
            phys.rearrange(&inv)
        })
    }

    fn scalar(&self, se: &SubExp) -> EResult<Scalar> {
        match se {
            SubExp::Const(k) => Ok(*k),
            SubExp::Var(v) => match self.env.get(v) {
                Some(HVal::Scalar(s)) => Ok(*s),
                Some(HVal::Array(_)) => {
                    Err(ExecError::Plan(format!("{v} is an array, expected scalar")))
                }
                None => Err(ExecError::Plan(format!("unbound host variable {v}"))),
            },
        }
    }

    fn usize_of(&self, se: &SubExp) -> EResult<usize> {
        Ok(self
            .scalar(se)?
            .as_i64()
            .ok_or_else(|| ExecError::Plan("non-integer size".into()))?
            .max(0) as usize)
    }

    fn array(&self, v: &Name) -> EResult<DArr> {
        match self.env.get(v) {
            Some(HVal::Array(d)) => Ok(d.clone()),
            _ => Err(ExecError::Plan(format!("{v} is not a device array"))),
        }
    }

    /// Materialises `d` in the requested physical layout, with caching.
    fn materialise(&mut self, d: &DArr, wanted: &[usize]) -> EResult<BufId> {
        let identity: Vec<usize> = (0..d.shape.len()).collect();
        let wanted_full: Vec<usize> = if wanted.is_empty() {
            identity.clone()
        } else {
            wanted.to_vec()
        };
        let current: Vec<usize> = if d.perm.is_empty() {
            identity
        } else {
            d.perm.clone()
        };
        if current == wanted_full {
            return Ok(d.buf);
        }
        if let Some(&cached) = self.layout_cache.get(&(d.buf, wanted_full.clone())) {
            return Ok(cached);
        }
        // Physical rearrangement: download logical, upload permuted.
        let logical = self.download_arr(d)?;
        let permuted = logical.rearrange(&wanted_full);
        let new_buf = self.mem.upload(permuted.data)?;
        self.layout_cache.insert((d.buf, wanted_full), new_buf);
        // Cost: one round over memory in, one out, plus a launch.
        let t = self.device.launch_overhead_us + self.device.memory_us(2.0 * d.bytes() as f64);
        self.report.device_op_us += t;
        self.report.total_us += t;
        self.report.transposes += 1;
        self.report.timeline.push(TimelineEvent::DeviceOp {
            what: "transpose".into(),
            bytes: 2 * d.bytes(),
            us: t,
        });
        Ok(new_buf)
    }

    /// Frees `buf` together with every cached layout derived from it
    /// (recursively), dropping layout-cache entries in both directions so
    /// a recycled id can never be resurrected through the cache.
    fn free_buf(&mut self, buf: BufId) {
        let mut work = vec![buf];
        while let Some(b) = work.pop() {
            let mut derived: Vec<BufId> = self
                .layout_cache
                .iter()
                .filter(|((k, _), _)| *k == b)
                .map(|(_, &v)| v)
                .collect();
            // HashMap iteration order is arbitrary; sort so the free
            // order (and with it the memory-event timeline) is
            // deterministic across runs.
            derived.sort_unstable();
            self.layout_cache.retain(|(k, _), v| *k != b && *v != b);
            work.extend(derived);
            self.mem.free(b);
        }
    }

    /// Frees old-merge buffers that were allocated inside the current
    /// loop (stamp at or past the entry watermark) and did not survive
    /// into the new merge — the double-buffer swap's reclamation half.
    fn rotate_merge(&mut self, old: &[BufId], merge: &[HVal]) {
        let Some(&wm) = self.loop_watermarks.last() else {
            return;
        };
        for &b in old {
            if merge
                .iter()
                .any(|v| matches!(v, HVal::Array(d) if d.buf == b))
            {
                continue;
            }
            if self.mem.stamp(b).is_some_and(|s| s >= wm) {
                self.free_buf(b);
            }
        }
        // These frees are the double-buffer rotation's reclamation half;
        // label them as such on the memory timeline.
        self.flush_mem_as("?", Some(MemOp::Rotate));
    }

    /// Invalidates every layout-cache entry touching `buf` without
    /// freeing it: the buffer is about to change contents or owner (a
    /// steal or a hoisted write), so cached materialisations of it are
    /// stale and entries deriving it from another buffer no longer hold.
    fn invalidate_buf(&mut self, buf: BufId) {
        let mut derived: Vec<BufId> = self
            .layout_cache
            .iter()
            .filter(|((k, _), _)| *k == buf)
            .map(|(_, &v)| v)
            .collect();
        derived.sort_unstable();
        self.layout_cache.retain(|(k, _), v| *k != buf && *v != buf);
        for d in derived {
            self.free_buf(d);
        }
    }

    fn device_op(&mut self, what: &str, bytes: f64) {
        let t = self.device.launch_overhead_us + self.device.memory_us(bytes);
        self.report.device_op_us += t;
        self.report.total_us += t;
        self.report.timeline.push(TimelineEvent::DeviceOp {
            what: what.into(),
            bytes: bytes as u64,
            us: t,
        });
    }

    fn sync_point(&mut self, what: &str) {
        let t = self.device.sync_overhead_us;
        self.report.total_us += t;
        self.report.timeline.push(TimelineEvent::Sync {
            what: what.into(),
            us: t,
        });
    }

    fn body(&mut self, b: &HBody) -> EResult<Vec<HVal>> {
        for stm in &b.stms {
            self.stm(stm)?;
            // Attribute the statement's memory traffic to its source site
            // (nested bodies flushed their own statements already, so only
            // this statement's events are pending). Most statements have
            // none, and then the site is not worth building.
            if self.mem.has_events() {
                let site = self.stm_site(stm);
                self.flush_mem(&site);
            }
        }
        b.result
            .iter()
            .map(|se| match se {
                SubExp::Const(k) => Ok(HVal::Scalar(*k)),
                SubExp::Var(v) => self
                    .env
                    .get(v)
                    .cloned()
                    .ok_or_else(|| ExecError::Plan(format!("unbound result {v}"))),
            })
            .collect()
    }

    fn stm(&mut self, stm: &HStm) -> EResult<()> {
        match stm {
            HStm::Direct(s) => self.direct(s),
            HStm::Launch { pat, spec } => self.launch(pat, spec),
            HStm::Combine {
                pat,
                partials,
                kernel,
                args,
            } => self.combine(pat, partials, kernel, args),
            HStm::Loop {
                pat,
                params,
                while_cond,
                for_var,
                body,
            } => {
                let mut merge: Vec<HVal> = params
                    .iter()
                    .map(|(_, init)| self.hval(init))
                    .collect::<EResult<_>>()?;
                // Double-buffer rotation (planned programs only): after
                // each iteration, merge buffers that were allocated inside
                // this loop and did not survive into the next iteration
                // are dead — free them so two buffers swap instead of one
                // accumulating per round.
                let rotate = self.plan.mem_planned;
                if rotate {
                    self.loop_watermarks.push(self.mem.epoch());
                }
                let step = |ex: &mut Self, merge: &mut Vec<HVal>| -> EResult<()> {
                    let old = merge_bufs(merge);
                    *merge = ex.body(body)?;
                    if rotate {
                        ex.rotate_merge(&old, merge);
                    }
                    Ok(())
                };
                match (while_cond, for_var) {
                    (None, Some((var, bound))) => {
                        let n = self
                            .scalar(bound)?
                            .as_i64()
                            .ok_or_else(|| ExecError::Plan("loop bound".into()))?;
                        for i in 0..n {
                            for ((p, _), v) in params.iter().zip(&merge) {
                                self.env.insert(p.name.clone(), v.clone());
                            }
                            self.env.insert(var.clone(), HVal::Scalar(Scalar::I64(i)));
                            step(self, &mut merge)?;
                        }
                    }
                    (Some(cond), _) => loop {
                        for ((p, _), v) in params.iter().zip(&merge) {
                            self.env.insert(p.name.clone(), v.clone());
                        }
                        let cv = self.body(cond)?;
                        let c = match cv.first() {
                            Some(HVal::Scalar(Scalar::Bool(b))) => *b,
                            _ => return Err(ExecError::Plan("while condition not boolean".into())),
                        };
                        if !c {
                            break;
                        }
                        step(self, &mut merge)?;
                    },
                    _ => return Err(ExecError::Plan("malformed loop".into())),
                }
                if rotate {
                    self.loop_watermarks.pop();
                }
                for (pe, v) in pat.iter().zip(merge) {
                    self.env.insert(pe.name.clone(), v);
                }
                Ok(())
            }
            HStm::If {
                pat,
                cond,
                then_b,
                else_b,
            } => {
                let c = self
                    .scalar(cond)?
                    .as_bool()
                    .ok_or_else(|| ExecError::Plan("if condition not boolean".into()))?;
                let vals = if c {
                    self.body(then_b)?
                } else {
                    self.body(else_b)?
                };
                for (pe, v) in pat.iter().zip(vals) {
                    self.env.insert(pe.name.clone(), v);
                }
                Ok(())
            }
            HStm::Free { names } => {
                // A planner free names a whole alias class; several names
                // may share one buffer, and scalars or not-yet-bound names
                // simply don't participate.
                let mut bufs: Vec<BufId> = Vec::new();
                for n in names {
                    if let Some(HVal::Array(d)) = self.env.get(n) {
                        if self.mem.is_live(d.buf) && !bufs.contains(&d.buf) {
                            bufs.push(d.buf);
                        }
                    }
                }
                for b in bufs {
                    self.free_buf(b);
                }
                Ok(())
            }
            HStm::Alloc { name, elem, shape } => {
                let shape: Vec<usize> = shape
                    .iter()
                    .map(|s| self.usize_of(s))
                    .collect::<EResult<_>>()?;
                let total = shape.iter().product();
                let buf = self.mem.alloc(*elem, total)?;
                self.env.insert(
                    name.clone(),
                    HVal::Array(DArr {
                        buf,
                        shape,
                        elem: *elem,
                        perm: Vec::new(),
                    }),
                );
                Ok(())
            }
        }
    }

    fn hval(&self, se: &SubExp) -> EResult<HVal> {
        match se {
            SubExp::Const(k) => Ok(HVal::Scalar(*k)),
            SubExp::Var(v) => self
                .env
                .get(v)
                .cloned()
                .ok_or_else(|| ExecError::Plan(format!("unbound {v}"))),
        }
    }

    /// Executes a non-launch statement: scalar host code, device builtins,
    /// or an interpreter fallback.
    fn direct(&mut self, stm: &futhark_core::Stm) -> EResult<()> {
        use futhark_interp::scalar as sc;
        let bind1 = |ex: &mut Self, pat: &[PatElem], v: HVal| {
            ex.env.insert(pat[0].name.clone(), v);
        };
        match &stm.exp {
            Exp::SubExp(se) => {
                let v = self.hval(se)?;
                bind1(self, &stm.pat, v);
                Ok(())
            }
            Exp::BinOp(op, a, b) => {
                let x = self.scalar(a)?;
                let y = self.scalar(b)?;
                let r = sc::eval_binop(*op, x, y)?;
                bind1(self, &stm.pat, HVal::Scalar(r));
                Ok(())
            }
            Exp::UnOp(op, a) => {
                let x = self.scalar(a)?;
                bind1(self, &stm.pat, HVal::Scalar(sc::eval_unop(*op, x)?));
                Ok(())
            }
            Exp::Cmp(op, a, b) => {
                let x = self.scalar(a)?;
                let y = self.scalar(b)?;
                bind1(self, &stm.pat, HVal::Scalar(sc::eval_cmp(*op, x, y)?));
                Ok(())
            }
            Exp::Convert(t, a) => {
                let x = self.scalar(a)?;
                bind1(self, &stm.pat, HVal::Scalar(sc::eval_convert(*t, x)?));
                Ok(())
            }
            Exp::Iota(n) => {
                let n = self.usize_of(n)?;
                let buf = self.mem.upload(Buffer::I64((0..n as i64).collect()))?;
                self.device_op("iota", (n * 8) as f64);
                bind1(
                    self,
                    &stm.pat,
                    HVal::Array(DArr {
                        buf,
                        shape: vec![n],
                        elem: ScalarType::I64,
                        perm: Vec::new(),
                    }),
                );
                Ok(())
            }
            Exp::Replicate(n, v) => {
                let n = self.usize_of(n)?;
                match self.hval(v)? {
                    HVal::Scalar(s) => {
                        let t = s.scalar_type();
                        let buf = self
                            .mem
                            .upload(Buffer::from_scalars(t, (0..n).map(|_| s)))?;
                        self.device_op("replicate", (n * t.byte_size()) as f64);
                        bind1(
                            self,
                            &stm.pat,
                            HVal::Array(DArr {
                                buf,
                                shape: vec![n],
                                elem: t,
                                perm: Vec::new(),
                            }),
                        );
                    }
                    HVal::Array(d) => {
                        let row = self.download_arr(&d)?;
                        let mut shape = vec![n];
                        shape.extend(&row.shape);
                        let total = n * row.data.len();
                        let mut data = Buffer::zeros(row.elem_type(), total);
                        for i in 0..n {
                            data.copy_from(i * row.data.len(), &row.data, 0, row.data.len());
                        }
                        let buf = self.mem.upload(data)?;
                        self.device_op("replicate", (total * row.elem_type().byte_size()) as f64);
                        bind1(
                            self,
                            &stm.pat,
                            HVal::Array(DArr {
                                buf,
                                shape,
                                elem: row.elem_type(),
                                perm: Vec::new(),
                            }),
                        );
                    }
                }
                Ok(())
            }
            Exp::Copy(a) => {
                let d = self.array(a)?;
                let data = self.mem.download(d.buf)?.clone();
                let buf = self.mem.upload(data)?;
                self.device_op("copy", 2.0 * d.bytes() as f64);
                bind1(self, &stm.pat, HVal::Array(DArr { buf, ..d.clone() }));
                Ok(())
            }
            Exp::Rearrange { perm, array } => {
                // Symbolic: compose permutations, zero cost.
                let d = self.array(array)?;
                let cur: Vec<usize> = if d.perm.is_empty() {
                    (0..d.shape.len()).collect()
                } else {
                    d.perm.clone()
                };
                let new_shape: Vec<usize> = perm.iter().map(|&p| d.shape[p]).collect();
                // Physical position p holds old logical cur[p] = new logical
                // j with perm[j] == cur[p].
                let mut inv_perm = vec![0usize; perm.len()];
                for (j, &p) in perm.iter().enumerate() {
                    inv_perm[p] = j;
                }
                let new_perm: Vec<usize> = cur.iter().map(|&l| inv_perm[l]).collect();
                bind1(
                    self,
                    &stm.pat,
                    HVal::Array(DArr {
                        buf: d.buf,
                        shape: new_shape,
                        elem: d.elem,
                        perm: new_perm,
                    }),
                );
                Ok(())
            }
            Exp::Reshape { shape, array } => {
                let d = self.array(array)?;
                let buf = self.materialise(&d, &[])?;
                let new_shape: Vec<usize> = shape
                    .iter()
                    .map(|s| self.usize_of(s))
                    .collect::<EResult<_>>()?;
                bind1(
                    self,
                    &stm.pat,
                    HVal::Array(DArr {
                        buf,
                        shape: new_shape,
                        elem: d.elem,
                        perm: Vec::new(),
                    }),
                );
                Ok(())
            }
            Exp::Concat { arrays } => {
                let parts: Vec<ArrayVal> = arrays
                    .iter()
                    .map(|a| {
                        let d = self.array(a)?;
                        self.download_arr(&d)
                    })
                    .collect::<EResult<_>>()?;
                let refs: Vec<&ArrayVal> = parts.iter().collect();
                let joined = ArrayVal::concat(&refs);
                let bytes = joined.data.len() * joined.elem_type().byte_size();
                let shape = joined.shape.clone();
                let elem = joined.elem_type();
                let buf = self.mem.upload(joined.data)?;
                self.device_op("concat", 2.0 * bytes as f64);
                bind1(
                    self,
                    &stm.pat,
                    HVal::Array(DArr {
                        buf,
                        shape,
                        elem,
                        perm: Vec::new(),
                    }),
                );
                Ok(())
            }
            Exp::Index { array, indices } => {
                let d = self.array(array)?;
                let idx: Vec<i64> = indices
                    .iter()
                    .map(|i| {
                        self.scalar(i)?
                            .as_i64()
                            .ok_or_else(|| ExecError::Plan("bad index".into()))
                    })
                    .collect::<EResult<_>>()?;
                let arr = self.download_arr(&d)?;
                if idx.len() == arr.rank() {
                    let v = arr.index_scalar(&idx).ok_or_else(|| {
                        ExecError::Interp(InterpError::OutOfBounds {
                            what: format!("host read {array}{idx:?}"),
                        })
                    })?;
                    // A device→host read.
                    self.sync_point("host_read");
                    bind1(self, &stm.pat, HVal::Scalar(v));
                } else {
                    let slice = arr.index_slice(&idx).ok_or_else(|| {
                        ExecError::Interp(InterpError::OutOfBounds {
                            what: format!("host slice {array}{idx:?}"),
                        })
                    })?;
                    let bytes = slice.data.len() * slice.elem_type().byte_size();
                    let shape = slice.shape.clone();
                    let elem = slice.elem_type();
                    let buf = self.mem.upload(slice.data)?;
                    self.device_op("slice", 2.0 * bytes as f64);
                    bind1(
                        self,
                        &stm.pat,
                        HVal::Array(DArr {
                            buf,
                            shape,
                            elem,
                            perm: Vec::new(),
                        }),
                    );
                }
                Ok(())
            }
            Exp::Update {
                array,
                indices,
                value,
            } => {
                // Uniqueness guarantees in-place safety: a small device
                // write (or row write for bulk updates).
                let d = self.array(array)?;
                let buf = self.materialise(&d, &[])?;
                let idx: Vec<i64> = indices
                    .iter()
                    .map(|i| {
                        self.scalar(i)?
                            .as_i64()
                            .ok_or_else(|| ExecError::Plan("bad index".into()))
                    })
                    .collect::<EResult<_>>()?;
                let mut arr = ArrayVal::new(d.shape.clone(), self.mem.download(buf)?.clone());
                let ok = match self.hval(value)? {
                    HVal::Scalar(s) => arr.update_scalar(&idx, s),
                    HVal::Array(vd) => {
                        let v = self.download_arr(&vd)?;
                        arr.update_slice(&idx, &v)
                    }
                };
                if !ok {
                    return Err(ExecError::Interp(InterpError::OutOfBounds {
                        what: format!("host update {array}{idx:?}"),
                    }));
                }
                let nbuf = self.mem.upload(arr.data)?;
                self.sync_point("host_update");
                bind1(
                    self,
                    &stm.pat,
                    HVal::Array(DArr {
                        buf: nbuf,
                        shape: d.shape.clone(),
                        elem: d.elem,
                        perm: Vec::new(),
                    }),
                );
                Ok(())
            }
            // Everything else (leftover SOACs, applies, loops that reached
            // a Direct statement): interpreter fallback, costed as
            // sequential host execution plus transfers.
            other => {
                let free = free_in_exp(other);
                let mut bindings: HashMap<Name, Value> = HashMap::new();
                let mut transfer_bytes = 0f64;
                for v in free {
                    if let Some(hv) = self.env.get(&v).cloned() {
                        let val = self.download_value(&hv)?;
                        if let Value::Array(a) = &val {
                            transfer_bytes += (a.data.len() * a.elem_type().byte_size()) as f64;
                        }
                        bindings.insert(v, val);
                    }
                }
                let mut interp = Interpreter::new(self.prog);
                let before = interp.work();
                let vals = interp.eval_exp_with(&bindings, other)?;
                let work = interp.work() - before;
                let t = 2.0 * self.device.sync_overhead_us
                    + transfer_bytes / (PCIE_GBPS * 1e3)
                    + work as f64 * HOST_US_PER_OP;
                self.report.fallback_us += t;
                self.report.total_us += t;
                self.report.timeline.push(TimelineEvent::Fallback {
                    what: exp_tag(other).into(),
                    work,
                    us: t,
                });
                for (pe, v) in stm.pat.iter().zip(vals) {
                    let hv = self.upload_value(&v)?;
                    self.env.insert(pe.name.clone(), hv);
                }
                Ok(())
            }
        }
    }

    /// Resolves kernel arguments against the host environment.
    fn kernel_args(
        &mut self,
        specs: &[ArgSpec],
        num_threads: u64,
        out_bufs: &[BufId],
    ) -> EResult<Vec<Arg>> {
        specs
            .iter()
            .map(|a| {
                Ok(match a {
                    ArgSpec::ScalarVar(v) => Arg::Scalar(self.scalar(&SubExp::Var(v.clone()))?),
                    ArgSpec::ScalarConst(k) => Arg::Scalar(*k),
                    ArgSpec::NumThreadsArg => Arg::Scalar(Scalar::I64(num_threads as i64)),
                    ArgSpec::ArrayIn { name, perm } => {
                        let d = self.array(name)?;
                        Arg::Buffer(self.materialise(&d, perm)?)
                    }
                    ArgSpec::Out(i) => Arg::Buffer(out_bufs[*i]),
                })
            })
            .collect()
    }

    fn launch(&mut self, pat: &[PatElem], spec: &LaunchSpec) -> EResult<()> {
        let dk = self.launch_kernel(spec)?;
        // Thread count.
        let num_threads = match &spec.kind {
            LaunchKind::Grid => {
                let mut t = 1u64;
                for w in &spec.widths {
                    t *= self.usize_of(w)? as u64;
                }
                t
            }
            LaunchKind::Stream { total } => {
                // "The optimal chunk size is the maximal one that still
                // fully occupies hardware" (§4.1) — but per-thread
                // accumulator state (e.g. Figure 4c's [k] histogram) adds a
                // fixed per-thread cost, so the thread count is balanced
                // against the accumulator footprint.
                let n = self.usize_of(total)? as u64;
                let cap = self.device.num_cus as u64 * self.device.group_size as u64 * 4;
                let acc_elems: u64 = spec
                    .outs
                    .iter()
                    .map(|o| {
                        o.shape[1..]
                            .iter()
                            .map(|d| self.usize_of(d).unwrap_or(1) as u64)
                            .product::<u64>()
                    })
                    .sum::<u64>()
                    .max(1);
                let floor = (self.device.num_cus * self.device.warp_size) as u64;
                let balanced = (n / acc_elems).max(floor);
                n.min(cap).min(balanced).max(1)
            }
        };
        // Output buffers.
        let mut out_bufs = Vec::new();
        let mut out_darrs = Vec::new();
        for o in &spec.outs {
            let shape: Vec<usize> = o
                .shape
                .iter()
                .map(|s| {
                    if *s == SubExp::i64(-1) {
                        Ok(num_threads as usize)
                    } else {
                        self.usize_of(s)
                    }
                })
                .collect::<EResult<_>>()?;
            let total: usize = shape.iter().product();
            let buf = if let Some(h) = &o.write_into {
                // Planner-hoisted destination: write into the buffer
                // pre-allocated before the loop, re-zeroed so each
                // iteration observes fresh-allocation semantics. Guards
                // re-check shape/type/liveness; on mismatch, allocate as
                // if unplanned.
                let hd = self.array(h)?;
                if self.plan.mem_planned
                    && hd.shape == shape
                    && hd.elem == o.elem
                    && hd.is_row_major()
                    && self.mem.is_live(hd.buf)
                {
                    self.invalidate_buf(hd.buf);
                    *self.mem.buffer_mut(hd.buf)? = Buffer::zeros(o.elem, total);
                    self.hoisted += 1;
                    let site = dk.site.clone();
                    self.flush_mem(&site);
                    self.push_mem_event(
                        MemOp::Hoist,
                        hd.buf,
                        (total * o.elem.byte_size()) as u64,
                        site,
                    );
                    hd.buf
                } else {
                    self.mem.alloc(o.elem, total)?
                }
            } else {
                match &o.init_from {
                    Some(src) => {
                        let d = self.array(src)?;
                        // Planner verdict: consume the source buffer in
                        // place (the paper's uniqueness story). Runtime
                        // guards re-check everything cheap — layout,
                        // size, liveness, and for the double-buffer
                        // rotation that the incoming buffer was born
                        // inside this loop (stamp past the watermark) —
                        // and otherwise degrade to the copy.
                        let stealable = self.plan.mem_planned
                            && d.is_row_major()
                            && o.perm.is_empty()
                            && d.elems() == total
                            && d.elem == o.elem
                            && self.mem.is_live(d.buf)
                            && match o.steal {
                                Some(StealKind::Always) => true,
                                Some(StealKind::LoopRotate) => self
                                    .loop_watermarks
                                    .last()
                                    .zip(self.mem.stamp(d.buf))
                                    .is_some_and(|(&wm, s)| s >= wm),
                                None => false,
                            };
                        if stealable {
                            self.invalidate_buf(d.buf);
                            self.steals += 1;
                            let site = dk.site.clone();
                            self.flush_mem(&site);
                            self.push_mem_event(MemOp::Steal, d.buf, d.bytes(), site);
                            d.buf
                        } else {
                            let b = self.materialise(&d, &[])?;
                            let data = self.mem.download(b)?.clone();
                            self.device_op("init_copy", 2.0 * d.bytes() as f64);
                            self.mem.upload(data)?
                        }
                    }
                    None => self.mem.alloc(o.elem, total)?,
                }
            };
            out_bufs.push(buf);
            out_darrs.push(DArr {
                buf,
                shape,
                elem: o.elem,
                perm: o.perm.clone(),
            });
        }
        let args = self.kernel_args(&spec.args, num_threads, &out_bufs)?;
        let out = crate::tape::launch(
            self.device,
            dk,
            num_threads,
            &args,
            &mut self.mem,
            &self.opts,
        )?;
        let stats = out.stats;
        let breakdown = sim::kernel_time_breakdown(self.device, &stats);
        let t = breakdown.total_us();
        // Modelled-time attribution: the launch's busy time (total minus
        // overhead) splits across sites in proportion to their share of
        // whichever counter bound this launch.
        let busy = t - breakdown.overhead_us;
        let limiting = |s: &SiteStats| match breakdown.limiter() {
            Limiter::Compute => s.warp_instructions,
            Limiter::Memory => s.bus_bytes,
            Limiter::Local => s.local_accesses,
        };
        let denom = match breakdown.limiter() {
            Limiter::Compute => stats.warp_instructions,
            Limiter::Memory => stats.bus_bytes,
            Limiter::Local => stats.local_accesses,
        };
        // Bucket by source-line key; the slot past the provenance table
        // is the unattributed remainder (`Prov::none().key()` = "?").
        for (i, s) in out.sites.iter().enumerate() {
            if s.is_zero() {
                continue;
            }
            let mut s = *s;
            if denom > 0 {
                s.modelled_us = busy * limiting(&s) as f64 / denom as f64;
            }
            let key = match self.plan.kernels[spec.kernel].prov_table.get(i) {
                Some(p) => p.key(),
                None => futhark_core::Prov::none().key(),
            };
            self.report.per_site.entry(key).or_default().merge(&s);
        }
        self.report.total_us += t;
        self.report.kernel_us += t;
        self.report.launches += 1;
        let entry = self.report.per_kernel.entry(dk.name.clone()).or_insert((
            0,
            0.0,
            KernelStats::default(),
        ));
        entry.0 += 1;
        entry.1 += t;
        entry.2.merge(&stats);
        self.report.stats.merge(&stats);
        let group_size = self.device.group_size as u64;
        self.report
            .timeline
            .push(TimelineEvent::Launch(LaunchRecord {
                kernel: dk.name.clone(),
                num_groups: num_threads.div_ceil(group_size),
                group_size,
                num_threads,
                stats,
                us: t,
                breakdown: Some(breakdown),
            }));
        for (pe, d) in pat.iter().zip(out_darrs) {
            self.env.insert(pe.name.clone(), HVal::Array(d));
        }
        Ok(())
    }

    fn combine(
        &mut self,
        pat: &[PatElem],
        partials: &[Name],
        kernel: &Kernel,
        args: &[ArgSpec],
    ) -> EResult<()> {
        let parts: Vec<DArr> = partials
            .iter()
            .map(|p| self.array(p))
            .collect::<EResult<_>>()?;
        let t = parts[0].shape[0];
        // The fold kernel's counters are not part of the modelled run: the
        // combine is charged below as one small device op.
        let args = self.kernel_args(args, t as u64, &[])?;
        let decoded: &'a DecodedPlan = self.decoded;
        let dk = decoded
            .folds
            .iter()
            .find(|d| d.name == kernel.name)
            .ok_or_else(|| {
                ExecError::Plan(format!("fold kernel `{}` was not decoded", kernel.name))
            })?;
        let opts = RunOptions {
            threads: 1,
            ..self.opts
        };
        crate::tape::launch(self.device, dk, 1, &args, &mut self.mem, &opts)?;
        let bytes: f64 = parts.iter().map(|d| d.bytes() as f64).sum();
        let t_us = self.device.launch_overhead_us
            + self.device.memory_us(bytes)
            + self.device.sync_overhead_us;
        self.report.device_op_us += t_us;
        self.report.total_us += t_us;
        self.report.timeline.push(TimelineEvent::DeviceOp {
            what: "combine".into(),
            bytes: bytes as u64,
            us: t_us,
        });
        // The result is row 0 of each partial: host scalars stay scalars,
        // an array result is copied into one fresh buffer.
        for (pe, d) in pat.iter().zip(&parts) {
            let row = d.elems() / t;
            let src = self.mem.download(d.buf)?;
            let hv = if d.shape.len() == 1 {
                HVal::Scalar(src.get(0))
            } else {
                let mut data = Buffer::zeros(d.elem, row);
                data.copy_from(0, src, 0, row);
                HVal::Array(DArr {
                    buf: self.mem.upload(data)?,
                    shape: d.shape[1..].to_vec(),
                    elem: d.elem,
                    perm: Vec::new(),
                })
            };
            self.env.insert(pe.name.clone(), hv);
        }
        Ok(())
    }
}

//! `futhark::analyze` — the bottleneck analysis engine.
//!
//! Turns the exact counters of a [`PerfReport`] into *diagnosis*: a
//! per-kernel roofline placement (arithmetic intensity, achieved vs
//! attainable throughput against the [`DeviceProfile`] ceilings), the
//! binding limiter of every kernel's time decomposition, occupancy,
//! coalescing and divergence waste, and a ranked list of source-anchored
//! findings ("line 14: 12% coalescing efficiency, memory-limited,
//! transpose candidate").
//!
//! Everything here is *derived*: the inputs are deterministic integer
//! counters and fixed device constants, the arithmetic is fixed-order
//! IEEE f64, so the whole [`AnalysisReport`] is reproducible bit-for-bit
//! and safe to pin in baselines. All ratios are guarded to stay finite
//! (non-finite numbers would not survive the JSON round-trip).

use futhark_gpu::exec::PerfReport;
use futhark_gpu::sim::{KernelStats, Limiter, TimeBreakdown};
use futhark_gpu::DeviceProfile;
use futhark_trace::Json;
use std::collections::BTreeMap;

/// Roofline and limiter data for one kernel (all launches merged).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAnalysis {
    /// Launches of this kernel.
    pub launches: u64,
    /// Total modelled time across launches, microseconds.
    pub time_us: f64,
    /// Summed per-launch time decomposition.
    pub breakdown: TimeBreakdown,
    /// The binding limiter of the summed decomposition.
    pub limiter: Limiter,
    /// Arithmetic intensity: warp instructions per bus byte (computed
    /// against `max(bus_bytes, 1)` so it stays finite).
    pub arithmetic_intensity: f64,
    /// Achieved warp-instruction issue rate over the kernel's total time
    /// (launch overhead included), warp instructions per µs.
    pub achieved_issue_per_us: f64,
    /// Achieved memory bandwidth over total time, bytes per µs.
    pub achieved_bytes_per_us: f64,
    /// The roofline ceiling at this arithmetic intensity:
    /// `min(peak_issue, intensity × peak_bandwidth)`, warp instr per µs.
    pub attainable_issue_per_us: f64,
    /// Achieved issue rate as a fraction of the attainable ceiling
    /// (clamped to [0, 1]).
    pub ceiling_fraction: f64,
    /// Mean launch occupancy: threads per launch over the device's full
    /// complement (`num_cus × group_size`), clamped to [0, 1].
    pub occupancy: f64,
    /// Coalescing efficiency: useful bytes / bus bytes.
    pub coalescing_efficiency: f64,
    /// The merged counters behind the numbers above.
    pub stats: KernelStats,
}

impl KernelAnalysis {
    /// Serialises to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("launches", Json::U64(self.launches)),
            ("time_us", Json::F64(self.time_us)),
            ("breakdown", self.breakdown.to_json()),
            ("limiter", Json::Str(self.limiter.as_str().to_string())),
            ("arithmetic_intensity", Json::F64(self.arithmetic_intensity)),
            (
                "achieved_issue_per_us",
                Json::F64(self.achieved_issue_per_us),
            ),
            (
                "achieved_bytes_per_us",
                Json::F64(self.achieved_bytes_per_us),
            ),
            (
                "attainable_issue_per_us",
                Json::F64(self.attainable_issue_per_us),
            ),
            ("ceiling_fraction", Json::F64(self.ceiling_fraction)),
            ("occupancy", Json::F64(self.occupancy)),
            (
                "coalescing_efficiency",
                Json::F64(self.coalescing_efficiency),
            ),
            ("stats", self.stats.to_json()),
        ])
    }

    /// Deserialises from JSON.
    pub fn from_json(j: &Json) -> Option<KernelAnalysis> {
        Some(KernelAnalysis {
            launches: j.get("launches")?.as_u64()?,
            time_us: j.get("time_us")?.as_f64()?,
            breakdown: TimeBreakdown::from_json(j.get("breakdown")?)?,
            limiter: Limiter::parse(j.get("limiter")?.as_str()?)?,
            arithmetic_intensity: j.get("arithmetic_intensity")?.as_f64()?,
            achieved_issue_per_us: j.get("achieved_issue_per_us")?.as_f64()?,
            achieved_bytes_per_us: j.get("achieved_bytes_per_us")?.as_f64()?,
            attainable_issue_per_us: j.get("attainable_issue_per_us")?.as_f64()?,
            ceiling_fraction: j.get("ceiling_fraction")?.as_f64()?,
            occupancy: j.get("occupancy")?.as_f64()?,
            coalescing_efficiency: j.get("coalescing_efficiency")?.as_f64()?,
            stats: KernelStats::from_json(j.get("stats")?)?,
        })
    }
}

/// One ranked, source-anchored diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Stable machine-readable kind (`transpose_candidate`,
    /// `launch_overhead_bound`, `divergence_waste`, `fallback_share`,
    /// `local_memory_bound`).
    pub kind: String,
    /// What the finding is about: a kernel name or a source-site key.
    pub target: String,
    /// Modelled microseconds at stake (the ranking key).
    pub impact_us: f64,
    /// Human-readable explanation.
    pub detail: String,
}

impl Finding {
    /// Serialises to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str(self.kind.clone())),
            ("target", Json::Str(self.target.clone())),
            ("impact_us", Json::F64(self.impact_us)),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }

    /// Deserialises from JSON.
    pub fn from_json(j: &Json) -> Option<Finding> {
        Some(Finding {
            kind: j.get("kind")?.as_str()?.to_string(),
            target: j.get("target")?.as_str()?.to_string(),
            impact_us: j.get("impact_us")?.as_f64()?,
            detail: j.get("detail")?.as_str()?.to_string(),
        })
    }
}

/// The full analysis of one run against one device profile.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// The device the run was modelled on.
    pub device: String,
    /// Total modelled run time, microseconds.
    pub total_us: f64,
    /// Whole-run time decomposition, summed over every launch.
    pub breakdown: TimeBreakdown,
    /// The binding limiter of the whole-run decomposition.
    pub limiter: Limiter,
    /// Per-kernel roofline placements, ordered by kernel name.
    pub kernels: BTreeMap<String, KernelAnalysis>,
    /// Peak device-memory footprint, bytes.
    pub peak_bytes: u64,
    /// The source site owning the peak (from the memory timeline; `None`
    /// for traces without memory events).
    pub peak_site: Option<String>,
    /// Ranked findings, largest modelled impact first.
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// Serialises to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("device", Json::Str(self.device.clone())),
            ("total_us", Json::F64(self.total_us)),
            ("breakdown", self.breakdown.to_json()),
            ("limiter", Json::Str(self.limiter.as_str().to_string())),
            (
                "kernels",
                Json::Obj(
                    self.kernels
                        .iter()
                        .map(|(k, a)| (k.clone(), a.to_json()))
                        .collect(),
                ),
            ),
            ("peak_bytes", Json::U64(self.peak_bytes)),
            (
                "peak_site",
                self.peak_site
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ),
            (
                "findings",
                Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
            ),
        ])
    }

    /// Deserialises from JSON. Rejects malformed documents with `None`.
    pub fn from_json(j: &Json) -> Option<AnalysisReport> {
        let mut kernels = BTreeMap::new();
        for (k, a) in j.get("kernels")?.as_obj()? {
            kernels.insert(k.clone(), KernelAnalysis::from_json(a)?);
        }
        let findings = j
            .get("findings")?
            .as_arr()?
            .iter()
            .map(Finding::from_json)
            .collect::<Option<Vec<_>>>()?;
        let peak_site = match j.get("peak_site")? {
            Json::Null => None,
            s => Some(s.as_str()?.to_string()),
        };
        Some(AnalysisReport {
            device: j.get("device")?.as_str()?.to_string(),
            total_us: j.get("total_us")?.as_f64()?,
            breakdown: TimeBreakdown::from_json(j.get("breakdown")?)?,
            limiter: Limiter::parse(j.get("limiter")?.as_str()?)?,
            kernels,
            peak_bytes: j.get("peak_bytes")?.as_u64()?,
            peak_site,
            findings,
        })
    }
}

/// Analyses one kernel's merged counters against the device ceilings.
fn analyze_kernel(
    device: &DeviceProfile,
    launches: u64,
    time_us: f64,
    stats: &KernelStats,
    breakdown: TimeBreakdown,
) -> KernelAnalysis {
    let intensity = stats.warp_instructions as f64 / (stats.bus_bytes.max(1)) as f64;
    let peak_issue = device.peak_issue_per_us();
    let peak_bw = device.peak_bytes_per_us();
    let attainable = peak_issue.min(intensity * peak_bw);
    // Achieved rates over the kernel's *total* time, launch overhead
    // included. The cost model places busy time exactly on the roofline
    // by construction (total = max of the component times), so the gap
    // to the ceiling measures what the roofline cannot see: launch
    // overhead and the non-binding components.
    let (achieved_issue, achieved_bytes) = if time_us > 0.0 {
        (
            stats.warp_instructions as f64 / time_us,
            stats.bus_bytes as f64 / time_us,
        )
    } else {
        (0.0, 0.0)
    };
    let ceiling_fraction = if attainable > 0.0 {
        (achieved_issue / attainable).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let full = device.num_cus as f64 * device.group_size as f64;
    let occupancy = if launches > 0 && full > 0.0 {
        (stats.threads as f64 / launches as f64 / full).clamp(0.0, 1.0)
    } else {
        0.0
    };
    KernelAnalysis {
        launches,
        time_us,
        limiter: breakdown.limiter(),
        breakdown,
        arithmetic_intensity: intensity,
        achieved_issue_per_us: achieved_issue,
        achieved_bytes_per_us: achieved_bytes,
        attainable_issue_per_us: attainable,
        ceiling_fraction,
        occupancy,
        coalescing_efficiency: stats.coalescing_efficiency(),
        stats: *stats,
    }
}

/// Analyses a run against a device profile: per-kernel roofline
/// placement, whole-run limiter decomposition, peak-footprint
/// attribution, and ranked findings.
///
/// Pure observation over an existing [`PerfReport`] — calling it cannot
/// perturb anything, and equal reports analyse to equal results.
pub fn analyze(run: &PerfReport, device: &DeviceProfile) -> AnalysisReport {
    let per_launch = run.kernel_breakdowns();
    let mut kernels = BTreeMap::new();
    let mut whole = TimeBreakdown::default();
    for (name, (launches, time_us, stats)) in &run.per_kernel {
        // Prefer the summed per-launch decomposition from the timeline;
        // recompute from the merged counters for traces that predate the
        // analysis layer (mathematically equal: every component is linear
        // in its counter).
        let bd = per_launch.get(name).copied().unwrap_or_else(|| {
            let mut b = futhark_gpu::kernel_time_breakdown(device, stats);
            b.overhead_us *= *launches as f64;
            b
        });
        whole.merge(&bd);
        kernels.insert(
            name.clone(),
            analyze_kernel(device, *launches, *time_us, stats, bd),
        );
    }
    let peak_site = run.peak_site().map(|(s, _)| s.to_string());
    let mut findings = Vec::new();
    for (name, a) in &kernels {
        // Memory-limited and badly coalesced: the paper's
        // transposition-for-coalescing case. The modelled stake is the
        // bus time wasted on non-useful bytes.
        if a.limiter == Limiter::Memory && a.coalescing_efficiency < 0.5 {
            findings.push(Finding {
                kind: "transpose_candidate".to_string(),
                target: name.clone(),
                impact_us: a.breakdown.memory_us * (1.0 - a.coalescing_efficiency),
                detail: format!(
                    "{name}: {:.0}% coalescing efficiency, memory-limited \
                     ({:.1} of {:.1} us on the bus) — transpose candidate",
                    a.coalescing_efficiency * 100.0,
                    a.breakdown.memory_us,
                    a.time_us,
                ),
            });
        }
        // More time launching than working: the paper's NN-on-W8100
        // pathology.
        let busy = a.time_us - a.breakdown.overhead_us;
        if a.breakdown.overhead_us > busy && a.launches > 1 {
            findings.push(Finding {
                kind: "launch_overhead_bound".to_string(),
                target: name.clone(),
                impact_us: a.breakdown.overhead_us - busy,
                detail: format!(
                    "{name}: {} launches spend {:.1} us on overhead vs {:.1} us \
                     of work — batch or fuse launches",
                    a.launches, a.breakdown.overhead_us, busy,
                ),
            });
        }
        // Local-memory bound: tiling traded global traffic for local
        // pressure and local throughput now binds.
        if a.limiter == Limiter::Local {
            findings.push(Finding {
                kind: "local_memory_bound".to_string(),
                target: name.clone(),
                impact_us: a.breakdown.local_us - a.breakdown.memory_us.max(a.breakdown.compute_us),
                detail: format!(
                    "{name}: local-memory throughput binds ({:.1} us local vs \
                     {:.1} us global) — tile size or bank usage",
                    a.breakdown.local_us, a.breakdown.memory_us,
                ),
            });
        }
    }
    // Divergence waste per source site: issue slots burned by masked-off
    // lanes.
    for (site, s) in &run.per_site {
        if s.warp_instructions > 0
            && s.inactive_lane_instructions * 4 > s.warp_instructions
            && s.modelled_us > 0.0
        {
            let ratio = s.inactive_lane_instructions as f64
                / (s.warp_instructions + s.inactive_lane_instructions) as f64;
            findings.push(Finding {
                kind: "divergence_waste".to_string(),
                target: site.clone(),
                impact_us: s.modelled_us * ratio,
                detail: format!(
                    "line {site}: {:.0}% of issue slots masked off by divergence",
                    ratio * 100.0,
                ),
            });
        }
    }
    // Interpreter fallbacks eating the run.
    if run.fallback_us > 0.0 && run.fallback_us * 5.0 > run.total_us {
        findings.push(Finding {
            kind: "fallback_share".to_string(),
            target: "host".to_string(),
            impact_us: run.fallback_us,
            detail: format!(
                "interpreter fallbacks take {:.1} of {:.1} us — constructs \
                 not yet compiled to kernels dominate",
                run.fallback_us, run.total_us,
            ),
        });
    }
    findings.sort_by(|a, b| {
        b.impact_us
            .total_cmp(&a.impact_us)
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.target.cmp(&b.target))
    });
    AnalysisReport {
        device: device.name.clone(),
        total_us: run.total_us,
        limiter: whole.limiter(),
        breakdown: whole,
        kernels,
        peak_bytes: run.mem.peak_bytes,
        peak_site,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> AnalysisReport {
        let device = DeviceProfile::gtx780();
        let stats = KernelStats {
            threads: 4096,
            warp_instructions: 1000,
            global_transactions: 3200,
            bus_bytes: 3200 * 128,
            useful_bytes: 16384,
            local_accesses: 0,
            barriers: 0,
        };
        let bd = futhark_gpu::kernel_time_breakdown(&device, &stats);
        let run = PerfReport {
            total_us: bd.total_us(),
            kernel_us: bd.total_us(),
            launches: 1,
            stats,
            per_kernel: [("k0".to_string(), (1, bd.total_us(), stats))]
                .into_iter()
                .collect(),
            ..PerfReport::default()
        };
        analyze(&run, &device)
    }

    #[test]
    fn uncoalesced_kernel_is_memory_limited_with_a_transpose_finding() {
        let r = sample_report();
        let k = &r.kernels["k0"];
        assert_eq!(k.limiter, Limiter::Memory);
        assert!(k.coalescing_efficiency < 0.05);
        assert!(r
            .findings
            .iter()
            .any(|f| f.kind == "transpose_candidate" && f.target == "k0"));
        assert_eq!(r.limiter, Limiter::Memory);
    }

    #[test]
    fn analysis_metrics_stay_finite() {
        let r = sample_report();
        let k = &r.kernels["k0"];
        for v in [
            r.total_us,
            k.arithmetic_intensity,
            k.achieved_issue_per_us,
            k.achieved_bytes_per_us,
            k.attainable_issue_per_us,
            k.ceiling_fraction,
            k.occupancy,
        ] {
            assert!(v.is_finite(), "{v} not finite");
        }
        // Zero-stats runs too (every guard path).
        let empty = analyze(&PerfReport::default(), &DeviceProfile::gtx780());
        assert!(empty.total_us.is_finite());
        assert!(empty.kernels.is_empty());
    }

    #[test]
    fn analysis_round_trips_through_json() {
        let r = sample_report();
        let text = r.to_json().render_pretty();
        let back =
            AnalysisReport::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, r);
    }

    #[test]
    fn malformed_analysis_json_is_rejected() {
        let r = sample_report();
        let good = r.to_json().render();
        assert!(AnalysisReport::from_json(&Json::parse(&good).unwrap()).is_some());
        for broken in [
            good.replace("\"limiter\"", "\"limiterz\""),
            good.replace("\"memory\"", "\"compute\""), // limiter contradicts components
            good.replace("\"peak_bytes\"", "\"peak_bytez\""),
            "{}".to_string(),
        ] {
            let Ok(j) = Json::parse(&broken) else {
                continue;
            };
            assert!(
                AnalysisReport::from_json(&j).is_none(),
                "accepted malformed: {broken}"
            );
        }
    }
}

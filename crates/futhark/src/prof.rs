//! `futhark::prof` — the **futhark-prof** report renderer.
//!
//! Turns the two halves of a trace — the compile-side [`CompileReport`]
//! and the run-side [`PerfReport`] — into a human-readable profile
//! (per-kernel time table with time share and coalescing efficiency,
//! pass-time breakdown, rewrite counters) and one machine-readable JSON
//! document for archival next to benchmark output.

use crate::analyze::AnalysisReport;
use futhark_gpu::exec::{PerfReport, TimelineEvent};
use futhark_gpu::sim::{KernelStats, Limiter, SiteStats};
use futhark_trace::{ChromeTrace, CompileReport, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One-line execution summary: modelled time split by category.
pub fn render_summary(run: &PerfReport) -> String {
    let fallbacks = run
        .timeline
        .iter()
        .filter(|e| matches!(e, TimelineEvent::Fallback { .. }))
        .count();
    format!(
        "total {:.1} us | kernels {:.1} us ({} launches) | \
         device ops {:.1} us ({} transposes) | \
         fallbacks {:.1} us ({} events)",
        run.total_us,
        run.kernel_us,
        run.launches,
        run.device_op_us,
        run.transposes,
        run.fallback_us,
        fallbacks,
    )
}

/// One-line device-memory summary: peak footprint and allocator
/// activity (reuse hits include in-place steals by the executor).
pub fn render_memory(run: &PerfReport) -> String {
    let m = &run.mem;
    format!(
        "memory: peak {} B | allocs {} | frees {} | \
         reuses {} ({:.1}% reuse) | hoisted {}",
        m.peak_bytes,
        m.allocs,
        m.frees,
        m.reuses,
        m.reuse_rate() * 100.0,
        m.hoisted,
    )
}

/// Per-kernel table, hottest kernel first: launches, total modelled
/// time, share of total time, and coalescing efficiency.
pub fn render_kernels(run: &PerfReport) -> String {
    let nw = run
        .per_kernel
        .keys()
        .map(String::len)
        .max()
        .unwrap_or(0)
        .max("kernel".len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<nw$}  {:>8}  {:>12}  {:>6}  {:>8}",
        "kernel", "launches", "time (us)", "share", "coalesce"
    );
    for (name, (launches, us, stats)) in run.kernels_by_time() {
        let share = if run.total_us > 0.0 {
            us / run.total_us * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{name:<nw$}  {launches:>8}  {us:>12.1}  {share:>5.1}%  {:>7.1}%",
            stats.coalescing_efficiency() * 100.0
        );
    }
    out
}

/// Pass-time breakdown: wall-clock time, IR size across the phase, and
/// how many rewrite events fired.
pub fn render_passes(report: &CompileReport) -> String {
    let nw = report
        .passes
        .iter()
        .map(|p| p.name.len())
        .max()
        .unwrap_or(0)
        .max("pass".len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<nw$}  {:>10}  {:>16}  {:>7}  {:>8}",
        "pass", "wall (us)", "statements", "kernels", "rewrites"
    );
    for p in &report.passes {
        let stms = format!("{} -> {}", p.before.statements, p.after.statements);
        let rewrites: u64 = p.counters.iter().map(|(_, v)| v).sum();
        let _ = writeln!(
            out,
            "{:<nw$}  {:>10.1}  {stms:>16}  {:>7}  {rewrites:>8}",
            p.name, p.wall_us, p.after.kernels
        );
    }
    let _ = writeln!(out, "{:<nw$}  {:>10.1}", "(total)", report.total_wall_us());
    out
}

/// Every rewrite counter of every phase, merged, one per line.
pub fn render_counters(report: &CompileReport) -> String {
    let all = report.all_counters();
    let nw = all.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (k, v) in all.iter() {
        let _ = writeln!(out, "  {k:<nw$}  {v:>8}");
    }
    out
}

/// The full profile: execution summary, per-kernel table, and — when a
/// compile-side trace is available — pass breakdown and rewrite
/// counters.
pub fn render(compile: Option<&CompileReport>, run: &PerfReport) -> String {
    let mut out = String::from("== futhark-prof ==\n");
    out.push_str(&render_summary(run));
    out.push('\n');
    out.push_str(&render_memory(run));
    out.push('\n');
    if !run.per_kernel.is_empty() {
        out.push('\n');
        out.push_str(&render_kernels(run));
    }
    if let Some(rep) = compile {
        out.push('\n');
        out.push_str(&render_passes(rep));
        let counters = render_counters(rep);
        if !counters.is_empty() {
            out.push_str("\nrewrite counters:\n");
            out.push_str(&counters);
        }
    }
    out
}

/// The bottleneck-analysis report: whole-run decomposition, per-kernel
/// limiter table, peak-footprint owner, and the ranked findings of
/// [`crate::analyze::analyze`].
pub fn render_analysis(a: &AnalysisReport) -> String {
    let mut out = format!("== analysis ({}) ==\n", a.device);
    let _ = writeln!(
        out,
        "total {:.1} us | limiter {} | overhead {:.1} | compute {:.1} | \
         memory {:.1} | local {:.1}",
        a.total_us,
        a.limiter,
        a.breakdown.overhead_us,
        a.breakdown.compute_us,
        a.breakdown.memory_us,
        a.breakdown.local_us,
    );
    let _ = writeln!(
        out,
        "peak {} B owned by {}",
        a.peak_bytes,
        a.peak_site.as_deref().unwrap_or("n/a"),
    );
    if !a.kernels.is_empty() {
        let nw = a
            .kernels
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max("kernel".len());
        let _ = writeln!(
            out,
            "\n{:<nw$}  {:>8}  {:>10}  {:>7}  {:>9}  {:>8}  {:>6}  {:>8}",
            "kernel",
            "launches",
            "time (us)",
            "limiter",
            "AI (wi/B)",
            "%ceiling",
            "occup",
            "coalesce"
        );
        for (name, k) in &a.kernels {
            let _ = writeln!(
                out,
                "{name:<nw$}  {:>8}  {:>10.1}  {:>7}  {:>9.3}  {:>7.1}%  {:>5.2}  {:>7.1}%",
                k.launches,
                k.time_us,
                k.limiter,
                k.arithmetic_intensity,
                k.ceiling_fraction * 100.0,
                k.occupancy,
                k.coalescing_efficiency * 100.0,
            );
        }
    }
    if !a.findings.is_empty() {
        out.push_str("\nfindings:\n");
        for (i, f) in a.findings.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>3}. [{}] {} (impact {:.1} us)",
                i + 1,
                f.kind,
                f.detail,
                f.impact_us,
            );
        }
    }
    out
}

/// Per-kernel roofline placement: arithmetic intensity, achieved issue
/// rate against the attainable ceiling `min(peak, AI × bandwidth)`, and
/// the binding limiter.
pub fn render_roofline(a: &AnalysisReport) -> String {
    let mut out = format!("== roofline ({}) ==\n", a.device);
    let nw = a
        .kernels
        .keys()
        .map(String::len)
        .max()
        .unwrap_or(0)
        .max("kernel".len());
    let _ = writeln!(
        out,
        "{:<nw$}  {:>9}  {:>16}  {:>18}  {:>8}  {:>7}",
        "kernel", "AI (wi/B)", "achieved (wi/us)", "attainable (wi/us)", "%ceiling", "limiter"
    );
    for (name, k) in &a.kernels {
        let _ = writeln!(
            out,
            "{name:<nw$}  {:>9.3}  {:>16.1}  {:>18.1}  {:>7.1}%  {:>7}",
            k.arithmetic_intensity,
            k.achieved_issue_per_us,
            k.attainable_issue_per_us,
            k.ceiling_fraction * 100.0,
            k.limiter,
        );
    }
    out
}

/// The device-memory timeline: every alloc/free/steal/rotate/hoist
/// event with byte size, resulting live footprint, and owning source
/// site, followed by an ASCII live-bytes curve whose maximum is the
/// run's `peak_bytes`.
pub fn render_mem_timeline(run: &PerfReport) -> String {
    let mut out = String::from("== memory timeline ==\n");
    let events: Vec<_> = run.mem_events().collect();
    if events.is_empty() {
        out.push_str("(no memory events in trace)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "{:>5}  {:>6}  {:>5}  {:>12}  {:>12}  site",
        "event", "op", "buf", "bytes", "live"
    );
    const MAX_ROWS: usize = 64;
    for (i, m) in events.iter().take(MAX_ROWS).enumerate() {
        let _ = writeln!(
            out,
            "{i:>5}  {:>6}  {:>5}  {:>12}  {:>12}  {}",
            m.op, m.buf, m.bytes, m.live_bytes, m.site
        );
    }
    if events.len() > MAX_ROWS {
        let _ = writeln!(out, "(... {} more events)", events.len() - MAX_ROWS);
    }
    let peak = events.iter().map(|m| m.live_bytes).max().unwrap_or(0);
    // Downsampled live-bytes curve: one glyph per bucket, scaled to the
    // peak (the maximum of the curve is peak_bytes by construction).
    const GLYPHS: &[u8] = b" .:-=+*#%@";
    const WIDTH: usize = 60;
    let curve: String = (0..events.len().min(WIDTH))
        .map(|b| {
            // Bucket b covers events [b*n/w, (b+1)*n/w): take the max.
            let w = events.len().min(WIDTH);
            let lo = b * events.len() / w;
            let hi = ((b + 1) * events.len() / w).max(lo + 1);
            let v = events[lo..hi].iter().map(|m| m.live_bytes).max().unwrap();
            let idx = (v * (GLYPHS.len() as u64 - 1))
                .checked_div(peak)
                .unwrap_or(0) as usize;
            GLYPHS[idx] as char
        })
        .collect();
    let _ = writeln!(out, "live bytes [{curve}] peak {peak} B");
    if let Some((site, _)) = run.peak_site() {
        let _ = writeln!(out, "peak owned by {site}");
    }
    out
}

/// Parses a [`futhark_core::Prov`] key (`"4"`, `"4,7"`) into 1-based
/// source-line numbers. The unattributed key `"?"` yields an empty list.
fn site_lines(key: &str) -> Vec<usize> {
    key.split(',').filter_map(|p| p.parse().ok()).collect()
}

/// Annotated source listing: each line of `source` prefixed with its
/// share of the run's global-memory transactions and warp-instruction
/// issues, plus divergence waste, from [`PerfReport::per_site`].
///
/// A site spanning several lines (a fused statement with key `"4,7"`)
/// contributes its **full** counters to *each* member line — attribution
/// answers "which lines were involved", so fused work is shown at every
/// contributing site rather than split by an arbitrary ratio. Shares are
/// therefore computed against the per-site total (each site counted
/// once) and line shares can sum past 100% in heavily fused programs.
///
/// With an empty `per_site` (a run that launched no kernel) the listing
/// carries a note instead of numbers.
pub fn render_annotated(source: &str, run: &PerfReport) -> String {
    let mut out = String::from("== annotated source ==\n");
    if run.per_site.is_empty() {
        out.push_str("(no per-site counters: no launch was recorded)\n");
        for (i, line) in source.lines().enumerate() {
            let _ = writeln!(out, "{:>4} | {line}", i + 1);
        }
        return out;
    }
    // Per-line accumulation; totals count each site once.
    let mut per_line: BTreeMap<usize, SiteStats> = BTreeMap::new();
    let mut unattributed = SiteStats::default();
    let mut total = SiteStats::default();
    for (key, stats) in &run.per_site {
        total.merge(stats);
        let lines = site_lines(key);
        if lines.is_empty() {
            unattributed.merge(stats);
        } else {
            for l in lines {
                per_line.entry(l).or_default().merge(stats);
            }
        }
    }
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64 * 100.0
        }
    };
    let _ = writeln!(
        out,
        "{:>4}  {:>7}  {:>7}  {:>7} | source",
        "line", "gmem%", "winst%", "diverg%"
    );
    for (i, line) in source.lines().enumerate() {
        let n = i + 1;
        match per_line.get(&n) {
            Some(s) if !s.is_zero() => {
                let _ = writeln!(
                    out,
                    "{n:>4}  {:>6.1}%  {:>6.1}%  {:>6.1}% | {line}",
                    share(s.global_transactions, total.global_transactions),
                    share(s.warp_instructions, total.warp_instructions),
                    share(s.inactive_lane_instructions, total.warp_instructions),
                );
            }
            _ => {
                let _ = writeln!(out, "{n:>4}  {:>7}  {:>7}  {:>7} | {line}", "", "", "");
            }
        }
    }
    if !unattributed.is_zero() {
        let _ = writeln!(
            out,
            "   ?  {:>6.1}%  {:>6.1}%  {:>6.1}% | (unattributed)",
            share(unattributed.global_transactions, total.global_transactions),
            share(unattributed.warp_instructions, total.warp_instructions),
            share(
                unattributed.inactive_lane_instructions,
                total.warp_instructions
            ),
        );
    }
    out.push_str("\n== memory ==\n");
    out.push_str(&render_memory(run));
    out.push('\n');
    out
}

/// One old/new pair in a [`TraceDiff`]; `None` on a side means the entry
/// is absent from that trace.
pub type DiffPair<T> = (Option<T>, Option<T>);

/// Structured comparison of two runs: whole-run totals, per-kernel
/// launches/time/counters, and per-site (per-source-line) counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDiff {
    /// Modelled total time, old vs new (microseconds).
    pub total_us: (f64, f64),
    /// Kernel launches, old vs new.
    pub launches: (u64, u64),
    /// Transpositions materialised, old vs new.
    pub transposes: (u64, u64),
    /// Peak device-memory footprint in bytes, old vs new.
    pub peak_bytes: (u64, u64),
    /// Buffer reuses (free-list hits plus in-place steals), old vs new.
    pub reuses: (u64, u64),
    /// Whole-run binding limiter, old vs new. `None` on a side means that
    /// run launched no kernel; it is rendered as "n/a".
    pub limiter: (Option<Limiter>, Option<Limiter>),
    /// Kernels whose launches/time/counters differ (or that exist on one
    /// side only), keyed by kernel name.
    pub per_kernel: BTreeMap<String, DiffPair<(u64, f64, KernelStats)>>,
    /// Source sites whose counters differ (or that exist on one side
    /// only), keyed by [`futhark_core::Prov`] key.
    pub per_site: BTreeMap<String, DiffPair<SiteStats>>,
}

impl TraceDiff {
    /// Whether the deterministic execution shape is identical: same
    /// launches, transposes, per-kernel counters, and per-site counters.
    /// Modelled time is *not* consulted (it is derived from the same
    /// counters and would add float-comparison noise).
    pub fn is_clean(&self) -> bool {
        self.launches.0 == self.launches.1
            && self.transposes.0 == self.transposes.1
            && self.peak_bytes.0 == self.peak_bytes.1
            && self.reuses.0 == self.reuses.1
            && self.per_kernel.is_empty()
            && self.per_site.is_empty()
    }
}

/// Compares two runs. Kernels and sites equal on both sides are dropped;
/// what remains is the difference (plus the always-present totals).
pub fn diff_runs(old: &PerfReport, new: &PerfReport) -> TraceDiff {
    // Whole-run limiter from the summed per-launch breakdowns; a run that
    // launched no kernel yields None, rendered "n/a".
    let run_limiter = |r: &PerfReport| {
        let mut whole = futhark_gpu::sim::TimeBreakdown::default();
        let mut seen = false;
        for bd in r.kernel_breakdowns().values() {
            whole.merge(bd);
            seen = true;
        }
        seen.then(|| whole.limiter())
    };
    let mut d = TraceDiff {
        total_us: (old.total_us, new.total_us),
        launches: (old.launches, new.launches),
        transposes: (old.transposes, new.transposes),
        peak_bytes: (old.mem.peak_bytes, new.mem.peak_bytes),
        reuses: (old.mem.reuses, new.mem.reuses),
        limiter: (run_limiter(old), run_limiter(new)),
        ..TraceDiff::default()
    };
    let keys: std::collections::BTreeSet<&String> =
        old.per_kernel.keys().chain(new.per_kernel.keys()).collect();
    for k in keys {
        let o = old.per_kernel.get(k);
        let n = new.per_kernel.get(k);
        let differs = match (o, n) {
            (Some(a), Some(b)) => a.0 != b.0 || a.2 != b.2,
            _ => true,
        };
        if differs {
            d.per_kernel.insert(k.clone(), (o.cloned(), n.cloned()));
        }
    }
    let keys: std::collections::BTreeSet<&String> =
        old.per_site.keys().chain(new.per_site.keys()).collect();
    // Compare the integer counters only: modelled_us is derived time and
    // absent from pre-analysis traces, so it would be pure diff noise.
    let strip_time = |s: &SiteStats| SiteStats {
        modelled_us: 0.0,
        ..*s
    };
    for k in keys {
        let o = old.per_site.get(k);
        let n = new.per_site.get(k);
        if o.map(strip_time) != n.map(strip_time) {
            d.per_site.insert(k.clone(), (o.copied(), n.copied()));
        }
    }
    d
}

/// Compares two [`trace_json`] documents (run halves only). `None` when
/// either document does not parse.
pub fn diff_traces(old: &Json, new: &Json) -> Option<TraceDiff> {
    let (_, old_run) = trace_from_json(old)?;
    let (_, new_run) = trace_from_json(new)?;
    Some(diff_runs(&old_run, &new_run))
}

/// Renders a [`TraceDiff`] as a table: totals first, then per-kernel and
/// per-site deltas ("-" marks a side where the entry is absent).
pub fn render_diff(d: &TraceDiff) -> String {
    let mut out = String::from("== trace diff (old -> new) ==\n");
    let _ = writeln!(
        out,
        "total {:.1} -> {:.1} us | launches {} -> {} | transposes {} -> {}",
        d.total_us.0, d.total_us.1, d.launches.0, d.launches.1, d.transposes.0, d.transposes.1
    );
    let fmt_lim = |l: &Option<Limiter>| l.map_or("n/a".to_string(), |l| l.to_string());
    let _ = writeln!(
        out,
        "peak {} -> {} bytes | reuses {} -> {} | limiter {} -> {}",
        d.peak_bytes.0,
        d.peak_bytes.1,
        d.reuses.0,
        d.reuses.1,
        fmt_lim(&d.limiter.0),
        fmt_lim(&d.limiter.1),
    );
    if d.is_clean() {
        out.push_str("no per-kernel or per-site differences\n");
        return out;
    }
    if !d.per_kernel.is_empty() {
        let nw = d
            .per_kernel
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max("kernel".len());
        let _ = writeln!(
            out,
            "\n{:<nw$}  {:>16}  {:>24}  {:>22}",
            "kernel", "launches", "time (us)", "gmem transactions"
        );
        for (name, (o, n)) in &d.per_kernel {
            let fmt_l = |v: &Option<(u64, f64, KernelStats)>| {
                v.map_or("-".to_string(), |(l, _, _)| l.to_string())
            };
            let fmt_us = |v: &Option<(u64, f64, KernelStats)>| {
                v.map_or("-".to_string(), |(_, us, _)| format!("{us:.1}"))
            };
            let fmt_tx = |v: &Option<(u64, f64, KernelStats)>| {
                v.map_or("-".to_string(), |(_, _, s)| {
                    s.global_transactions.to_string()
                })
            };
            let _ = writeln!(
                out,
                "{name:<nw$}  {:>7} -> {:<6}  {:>11} -> {:<10}  {:>10} -> {:<9}",
                fmt_l(o),
                fmt_l(n),
                fmt_us(o),
                fmt_us(n),
                fmt_tx(o),
                fmt_tx(n)
            );
        }
    }
    if !d.per_site.is_empty() {
        let nw = d
            .per_site
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(0)
            .max("line".len());
        let _ = writeln!(
            out,
            "\n{:<nw$}  {:>22}  {:>24}",
            "line", "gmem transactions", "warp instructions"
        );
        for (key, (o, n)) in &d.per_site {
            let fmt = |v: &Option<SiteStats>, f: fn(&SiteStats) -> u64| {
                v.as_ref().map_or("-".to_string(), |s| f(s).to_string())
            };
            let _ = writeln!(
                out,
                "{key:<nw$}  {:>10} -> {:<9}  {:>11} -> {:<10}",
                fmt(o, |s| s.global_transactions),
                fmt(n, |s| s.global_transactions),
                fmt(o, |s| s.warp_instructions),
                fmt(n, |s| s.warp_instructions)
            );
        }
    }
    out
}

/// Assembles a Chrome trace-event document (loadable in Perfetto or
/// `chrome://tracing`) from the two trace halves: compile passes on one
/// track (wall-clock), the execution timeline on another (modelled
/// time). The tracks use separate process lanes because the two clocks
/// are unrelated; each starts at timestamp 0.
pub fn chrome_trace(compile: Option<&CompileReport>, run: &PerfReport) -> Json {
    let mut t = ChromeTrace::new();
    if let Some(rep) = compile {
        t.name_lane(1, 1, "compile passes (wall clock)");
        let mut ts = 0.0;
        for p in &rep.passes {
            let rewrites: u64 = p.counters.iter().map(|(_, v)| v).sum();
            t.complete(
                &p.name,
                "pass",
                1,
                1,
                ts,
                p.wall_us,
                vec![
                    ("statements_before", Json::U64(p.before.statements)),
                    ("statements_after", Json::U64(p.after.statements)),
                    ("kernels_after", Json::U64(p.after.kernels)),
                    ("rewrites", Json::U64(rewrites)),
                ],
            );
            ts += p.wall_us;
        }
    }
    t.name_lane(2, 1, "device timeline (modelled)");
    let mut ts = 0.0;
    for e in &run.timeline {
        match e {
            TimelineEvent::Launch(l) => {
                let b = &l.breakdown;
                let args = vec![
                    ("num_groups", Json::U64(l.num_groups)),
                    ("group_size", Json::U64(l.group_size)),
                    ("threads", Json::U64(l.num_threads)),
                    (
                        "global_transactions",
                        Json::U64(l.stats.global_transactions),
                    ),
                    ("warp_instructions", Json::U64(l.stats.warp_instructions)),
                    ("barriers", Json::U64(l.stats.barriers)),
                    ("limiter", Json::Str(b.limiter().to_string())),
                    ("compute_us", Json::F64(b.compute_us)),
                    ("memory_us", Json::F64(b.memory_us)),
                    ("local_us", Json::F64(b.local_us)),
                ];
                t.complete(&l.kernel, "kernel", 2, 1, ts, l.us, args)
            }
            TimelineEvent::DeviceOp { what, bytes, us } => t.complete(
                what,
                "device_op",
                2,
                1,
                ts,
                *us,
                vec![("bytes", Json::U64(*bytes))],
            ),
            TimelineEvent::Fallback { what, work, us } => t.complete(
                what,
                "fallback",
                2,
                1,
                ts,
                *us,
                vec![("work", Json::U64(*work))],
            ),
            TimelineEvent::Sync { what, us } => t.complete(what, "sync", 2, 1, ts, *us, vec![]),
            // Memory events are instantaneous (us() == 0): a counter
            // sample on the live-bytes track at the current timestamp.
            TimelineEvent::Mem(m) => t.counter("live_bytes", 2, 1, ts, m.live_bytes),
        }
        ts += e.us();
    }
    t.to_json()
}

/// The whole trace as one JSON document: `{"compile": ..., "run": ...}`
/// (`compile` is `null` without [`crate::Compiler::with_trace`]).
pub fn trace_json(compile: Option<&CompileReport>, run: &PerfReport) -> Json {
    Json::obj(vec![
        (
            "compile",
            compile.map_or(Json::Null, CompileReport::to_json),
        ),
        ("run", run.to_json()),
    ])
}

/// Parses a [`trace_json`] document back into its two halves.
pub fn trace_from_json(j: &Json) -> Option<(Option<CompileReport>, PerfReport)> {
    let compile = match j.get("compile")? {
        Json::Null => None,
        c => Some(CompileReport::from_json(c)?),
    };
    let run = PerfReport::from_json(j.get("run")?)?;
    Some((compile, run))
}

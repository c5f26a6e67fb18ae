//! Schedules: the optimisation pipeline's decisions as a first-class
//! value.
//!
//! Every decision the pipeline used to hardwire — whether to run a
//! simplify rewrite family, whether to fuse at a particular candidate
//! edge, whether rule G5 claims a reduction, whether an input array is
//! transposed for coalescing, whether a kernel is 1D-tiled — is an
//! enumerable *choice point* recorded on a [`Schedule`]. The pipeline
//! consults a [`ScheduleCursor`] at each choice site; the cursor numbers
//! the sites of each [`ChoiceClass`] in the deterministic order the
//! passes encounter them, so a schedule can override any individual site
//! (`overrides`) on top of a per-class `default`.
//!
//! Two properties carry the autotuner:
//!
//! - **Determinism**: the pipeline visits choice sites in a fixed order
//!   given the answers to earlier queries, so `(program, schedule)`
//!   determines the compiled artifact bit-for-bit.
//! - **Collision-free labels**: [`Schedule::label`] is a canonical,
//!   length-prefixed (netstring-style) encoding — an *injective* map
//!   from schedules to strings, safe to use as a cache-key component.
//!   [`Schedule::parse_label`] is its strict inverse and rejects any
//!   non-canonical or trailing input.

use std::collections::BTreeMap;
use std::fmt;

/// A class of choice points, one per gated transformation. The pipeline
/// numbers sites within a class in encounter order; the numbering of
/// one class is independent of every other class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChoiceClass {
    /// Vertical (producer-consumer) fusion at a candidate edge.
    FuseVertical,
    /// Horizontal fusion of independent same-width maps.
    FuseHorizontal,
    /// StreamMap+Reduce to StreamRed fusion.
    FuseStream,
    /// Rule G5: a segmented-reduction kernel for a nested reduce.
    FlattenG5,
    /// Rule G7: loop interchange over an invariant-bound loop.
    FlattenInterchange,
    /// Transposing a kernel input array for coalesced access.
    CoalesceInputs,
    /// Allocating a kernel output transposed for coalesced access.
    CoalesceOutputs,
    /// 1D tiling of a kernel's inner loop.
    Tile,
}

impl ChoiceClass {
    /// All classes, in canonical (encoding) order. This is declaration
    /// order, since [`ChoiceClass::index`] is the discriminant.
    pub const ALL: &'static [ChoiceClass] = &[
        ChoiceClass::FuseVertical,
        ChoiceClass::FuseHorizontal,
        ChoiceClass::FuseStream,
        ChoiceClass::FlattenG5,
        ChoiceClass::FlattenInterchange,
        ChoiceClass::CoalesceInputs,
        ChoiceClass::CoalesceOutputs,
        ChoiceClass::Tile,
    ];

    /// The number of classes: the length of every per-class array.
    pub const COUNT: usize = ChoiceClass::ALL.len();

    /// Stable name, used in JSON and human-readable reports.
    pub fn name(self) -> &'static str {
        match self {
            ChoiceClass::FuseVertical => "fuse_vertical",
            ChoiceClass::FuseHorizontal => "fuse_horizontal",
            ChoiceClass::FuseStream => "fuse_stream",
            ChoiceClass::FlattenG5 => "flatten_g5",
            ChoiceClass::FlattenInterchange => "flatten_interchange",
            ChoiceClass::CoalesceInputs => "coalesce_inputs",
            ChoiceClass::CoalesceOutputs => "coalesce_outputs",
            ChoiceClass::Tile => "tile",
        }
    }

    /// Index into per-class arrays (canonical order).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for ChoiceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-rewrite-family toggles for the simplifier. All `true` is the
/// classic full simplifier; the pass itself still iterates to a fixed
/// point over whichever families are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimplifyToggles {
    /// Copy propagation (`let y = x`).
    pub copy_prop: bool,
    /// Constant folding and algebraic identities.
    pub const_fold: bool,
    /// Common-subexpression elimination.
    pub cse: bool,
    /// Hoisting loop-invariant bindings.
    pub hoist: bool,
    /// Dead-code elimination.
    pub dead_code: bool,
}

impl Default for SimplifyToggles {
    fn default() -> Self {
        SimplifyToggles {
            copy_prop: true,
            const_fold: true,
            cse: true,
            hoist: true,
            dead_code: true,
        }
    }
}

/// The decisions of one choice class: a class-wide default plus
/// per-site overrides keyed by the site's encounter index.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SiteDecisions {
    /// Answer for sites without an override.
    pub default: bool,
    /// Exceptions, keyed by encounter index within the class.
    pub overrides: BTreeMap<u32, bool>,
}

impl SiteDecisions {
    /// All-`default` decisions with no overrides.
    pub fn uniform(default: bool) -> SiteDecisions {
        SiteDecisions {
            default,
            overrides: BTreeMap::new(),
        }
    }

    /// The answer for site `n`.
    pub fn decide(&self, n: u32) -> bool {
        self.overrides.get(&n).copied().unwrap_or(self.default)
    }
}

/// A complete, serialisable description of every decision the pipeline
/// will take: coarse pass switches, simplify rewrite toggles, and
/// per-site decisions for each [`ChoiceClass`]. `Schedule::default()`
/// reproduces the classic hardwired pipeline exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Run the simplify pass (before fusion and again after flattening).
    pub simplify_pass: bool,
    /// Run the fusion pass.
    pub fusion_pass: bool,
    /// Run the memory planner.
    pub memplan: bool,
    /// Rewrite families within the simplify pass.
    pub simplify: SimplifyToggles,
    /// Per-class site decisions, indexed by [`ChoiceClass::index`].
    pub sites: [SiteDecisions; ChoiceClass::COUNT],
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            simplify_pass: true,
            fusion_pass: true,
            memplan: true,
            simplify: SimplifyToggles::default(),
            sites: std::array::from_fn(|_| SiteDecisions::uniform(true)),
        }
    }
}

/// Errors from [`Schedule::parse_label`]: the byte offset where parsing
/// failed and a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelError {
    /// Byte offset into the label.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule label, offset {}: {}",
            self.offset, self.message
        )
    }
}

/// The label's format-version prefix. Bump on any encoding change so
/// old labels are rejected rather than misread.
const LABEL_VERSION: &str = "sched3";

impl Schedule {
    /// The decisions of one class.
    pub fn decisions(&self, class: ChoiceClass) -> &SiteDecisions {
        &self.sites[class.index()]
    }

    /// Mutable access to one class's decisions.
    pub fn decisions_mut(&mut self, class: ChoiceClass) -> &mut SiteDecisions {
        &mut self.sites[class.index()]
    }

    /// Sets a class-wide default, returning `self` for chaining.
    pub fn with_default(mut self, class: ChoiceClass, value: bool) -> Schedule {
        self.sites[class.index()].default = value;
        self
    }

    /// Overrides one site of one class, returning `self` for chaining.
    pub fn with_override(mut self, class: ChoiceClass, site: u32, value: bool) -> Schedule {
        self.sites[class.index()].overrides.insert(site, value);
        self
    }

    /// Sets the class-wide default of both coalescing classes
    /// ([`ChoiceClass::CoalesceInputs`] and [`ChoiceClass::CoalesceOutputs`]):
    /// coalescing-by-transposition (Section 5.2) on or off at every site.
    pub fn with_coalescing(self, on: bool) -> Schedule {
        self.with_default(ChoiceClass::CoalesceInputs, on)
            .with_default(ChoiceClass::CoalesceOutputs, on)
    }

    /// Whether this is the all-default schedule (the classic pipeline).
    pub fn is_default(&self) -> bool {
        *self == Schedule::default()
    }

    /// The ablation corners the differential fuzzer compiles every
    /// program under, after the Section 6.1.1 ablations: everything on,
    /// everything off, and each optimisation switched off on its own
    /// (simplify, fusion, coalescing, tiling, memplan). Every corner must
    /// produce bit-identical results on every program the frontend
    /// accepts; the fuzzer treats any difference as a bug.
    pub fn ablation_corners() -> Vec<Schedule> {
        let all = Schedule::default();
        let none = Schedule {
            simplify_pass: false,
            fusion_pass: false,
            memplan: false,
            ..all.clone()
        }
        .with_coalescing(false)
        .with_default(ChoiceClass::Tile, false);
        vec![
            all.clone(),
            none,
            Schedule {
                simplify_pass: false,
                ..all.clone()
            },
            Schedule {
                fusion_pass: false,
                ..all.clone()
            },
            all.clone().with_coalescing(false),
            all.clone().with_default(ChoiceClass::Tile, false),
            Schedule {
                memplan: false,
                ..all
            },
        ]
    }

    /// Samples a random schedule. Every sample is *valid by
    /// construction*: declined choice sites fall back to sequential code,
    /// and overrides at sites the pipeline never queries are inert — so
    /// any combination of answers compiles to a program with the same
    /// semantics. Coarse switches and class defaults are biased towards
    /// `on` (the interesting interactions need most passes running).
    pub fn sample(rng: &mut crate::rng::Rng64) -> Schedule {
        let mut s = Schedule {
            simplify_pass: rng.chance(3, 4),
            fusion_pass: rng.chance(3, 4),
            memplan: rng.chance(3, 4),
            simplify: SimplifyToggles {
                copy_prop: rng.chance(3, 4),
                const_fold: rng.chance(3, 4),
                cse: rng.chance(3, 4),
                hoist: rng.chance(3, 4),
                dead_code: rng.chance(3, 4),
            },
            sites: std::array::from_fn(|_| SiteDecisions::uniform(true)),
        };
        for &class in ChoiceClass::ALL {
            let d = s.decisions_mut(class);
            d.default = rng.chance(3, 4);
            for site in 0..4u32 {
                if rng.chance(1, 4) {
                    d.overrides.insert(site, rng.chance(1, 2));
                }
            }
        }
        s
    }

    /// A canonical, collision-free encoding of the schedule, suitable as
    /// a cache-key component. Every field is length-prefixed
    /// (netstring-style `len:payload,`), fields appear in a fixed order,
    /// and overrides are sorted by site index — so equal labels imply
    /// equal schedules and vice versa.
    ///
    /// Layout: `sched3,` then one field of eight bits (coarse switches +
    /// simplify toggles), then one field per choice class, in
    /// [`ChoiceClass::ALL`] order, holding the class default and its
    /// overrides.
    pub fn label(&self) -> String {
        let mut out = String::new();
        out.push_str(LABEL_VERSION);
        out.push(',');
        let mut bits = String::with_capacity(8);
        for b in [
            self.simplify_pass,
            self.fusion_pass,
            self.memplan,
            self.simplify.copy_prop,
            self.simplify.const_fold,
            self.simplify.cse,
            self.simplify.hoist,
            self.simplify.dead_code,
        ] {
            bits.push(if b { '1' } else { '0' });
        }
        push_field(&mut out, &bits);
        for &class in ChoiceClass::ALL {
            let d = self.decisions(class);
            let mut body = String::new();
            body.push(if d.default { '1' } else { '0' });
            for (&site, &value) in &d.overrides {
                body.push(' ');
                body.push_str(&site.to_string());
                body.push(if value { '+' } else { '-' });
            }
            push_field(&mut out, &body);
        }
        out
    }

    /// Strict inverse of [`Schedule::label`]. Rejects unknown versions,
    /// malformed netstrings, non-canonical numbers, unsorted or
    /// duplicate overrides, and trailing input.
    pub fn parse_label(label: &str) -> Result<Schedule, LabelError> {
        let err = |offset: usize, message: &str| LabelError {
            offset,
            message: message.to_string(),
        };
        let bytes = label.as_bytes();
        let head = LABEL_VERSION.len() + 1;
        if bytes.len() < head || &label[..LABEL_VERSION.len()] != LABEL_VERSION {
            return Err(err(0, "unknown label version"));
        }
        if bytes[LABEL_VERSION.len()] != b',' {
            return Err(err(LABEL_VERSION.len(), "expected ',' after version"));
        }
        let mut pos = head;
        let bits = take_field(label, &mut pos)?;
        if bits.len() != 8 || !bits.bytes().all(|b| b == b'0' || b == b'1') {
            return Err(err(pos, "switch field must be exactly 8 bits"));
        }
        let bit = |i: usize| bits.as_bytes()[i] == b'1';
        let mut sched = Schedule {
            simplify_pass: bit(0),
            fusion_pass: bit(1),
            memplan: bit(2),
            simplify: SimplifyToggles {
                copy_prop: bit(3),
                const_fold: bit(4),
                cse: bit(5),
                hoist: bit(6),
                dead_code: bit(7),
            },
            sites: std::array::from_fn(|_| SiteDecisions::uniform(true)),
        };
        for &class in ChoiceClass::ALL {
            let start = pos;
            let body = take_field(label, &mut pos)?;
            let mut chars = body.as_bytes();
            let default = match chars.first() {
                Some(b'1') => true,
                Some(b'0') => false,
                _ => return Err(err(start, "class field must start with a default bit")),
            };
            chars = &chars[1..];
            let mut overrides = BTreeMap::new();
            let mut last: Option<u32> = None;
            while !chars.is_empty() {
                if chars[0] != b' ' {
                    return Err(err(start, "expected ' ' before an override"));
                }
                chars = &chars[1..];
                let digits_len = chars.iter().take_while(|b| b.is_ascii_digit()).count();
                if digits_len == 0 {
                    return Err(err(start, "override needs a site index"));
                }
                let digits = std::str::from_utf8(&chars[..digits_len]).unwrap();
                if digits.len() > 1 && digits.starts_with('0') {
                    return Err(err(start, "non-canonical site index"));
                }
                let site: u32 = digits
                    .parse()
                    .map_err(|_| err(start, "site index out of range"))?;
                if last.is_some_and(|l| site <= l) {
                    return Err(err(start, "overrides must be sorted and unique"));
                }
                last = Some(site);
                chars = &chars[digits_len..];
                let value = match chars.first() {
                    Some(b'+') => true,
                    Some(b'-') => false,
                    _ => return Err(err(start, "override needs a '+' or '-' decision")),
                };
                chars = &chars[1..];
                overrides.insert(site, value);
            }
            sched.sites[class.index()] = SiteDecisions { default, overrides };
        }
        if pos != bytes.len() {
            return Err(err(pos, "trailing input after last field"));
        }
        Ok(sched)
    }

    /// A short human-readable summary: `default`, or the list of
    /// deviations from the default schedule.
    pub fn describe(&self) -> String {
        if self.is_default() {
            return "default".to_string();
        }
        let mut parts = Vec::new();
        let base = Schedule::default();
        for (name, have, want) in [
            ("simplify", self.simplify_pass, base.simplify_pass),
            ("fusion", self.fusion_pass, base.fusion_pass),
            ("memplan", self.memplan, base.memplan),
        ] {
            if have != want {
                parts.push(format!("{}{}", if have { "+" } else { "-" }, name));
            }
        }
        for (name, have) in [
            ("copy_prop", self.simplify.copy_prop),
            ("const_fold", self.simplify.const_fold),
            ("cse", self.simplify.cse),
            ("hoist", self.simplify.hoist),
            ("dead_code", self.simplify.dead_code),
        ] {
            if !have {
                parts.push(format!("-{name}"));
            }
        }
        for &class in ChoiceClass::ALL {
            let d = self.decisions(class);
            if !d.default {
                parts.push(format!("-{}", class.name()));
            }
            for (&site, &value) in &d.overrides {
                parts.push(format!(
                    "{}{}@{site}",
                    if value { "+" } else { "-" },
                    class.name()
                ));
            }
        }
        parts.join(" ")
    }
}

/// Appends one netstring field: `len:payload,`.
fn push_field(out: &mut String, payload: &str) {
    out.push_str(&payload.len().to_string());
    out.push(':');
    out.push_str(payload);
    out.push(',');
}

/// Consumes one netstring field at `*pos`, advancing past it.
fn take_field<'a>(label: &'a str, pos: &mut usize) -> Result<&'a str, LabelError> {
    let err = |offset: usize, message: &str| LabelError {
        offset,
        message: message.to_string(),
    };
    let bytes = label.as_bytes();
    let start = *pos;
    let digits_len = bytes[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    if digits_len == 0 {
        return Err(err(start, "expected a field length"));
    }
    let digits = &label[start..start + digits_len];
    if digits.len() > 1 && digits.starts_with('0') {
        return Err(err(start, "non-canonical field length"));
    }
    let len: usize = digits
        .parse()
        .map_err(|_| err(start, "field length out of range"))?;
    let mut p = start + digits_len;
    if bytes.get(p) != Some(&b':') {
        return Err(err(p, "expected ':' after field length"));
    }
    p += 1;
    if p + len > bytes.len() || !label.is_char_boundary(p + len) {
        return Err(err(p, "field length exceeds input"));
    }
    let payload = &label[p..p + len];
    p += len;
    if bytes.get(p) != Some(&b',') {
        return Err(err(p, "expected ',' after field payload"));
    }
    *pos = p + 1;
    Ok(payload)
}

/// The pipeline's view of a [`Schedule`]: answers choice-point queries
/// and numbers the sites of each class in encounter order. Also records
/// how many sites of each class the compilation actually visited, which
/// is what the autotuner mutates over.
#[derive(Debug, Clone)]
pub struct ScheduleCursor {
    schedule: Schedule,
    counts: [u32; ChoiceClass::COUNT],
}

impl ScheduleCursor {
    /// A cursor at the start of compilation.
    pub fn new(schedule: Schedule) -> ScheduleCursor {
        ScheduleCursor {
            schedule,
            counts: [0; ChoiceClass::COUNT],
        }
    }

    /// Answers the next choice point of `class` and advances its
    /// counter. Call exactly once per *existing* choice site, in the
    /// pass's deterministic visit order.
    pub fn decide(&mut self, class: ChoiceClass) -> bool {
        let i = class.index();
        let n = self.counts[i];
        self.counts[i] += 1;
        self.schedule.sites[i].decide(n)
    }

    /// The schedule this cursor answers from.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// How many sites of `class` have been visited so far.
    pub fn observed(&self, class: ChoiceClass) -> u32 {
        self.counts[class.index()]
    }

    /// Per-class visit counts, indexed by [`ChoiceClass::index`].
    pub fn observed_counts(&self) -> [u32; ChoiceClass::COUNT] {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_answers_true_everywhere() {
        let mut cur = ScheduleCursor::new(Schedule::default());
        for &class in ChoiceClass::ALL {
            for _ in 0..4 {
                assert!(cur.decide(class));
            }
            assert_eq!(cur.observed(class), 4);
        }
    }

    #[test]
    fn overrides_hit_exact_sites_only() {
        let sched = Schedule::default()
            .with_override(ChoiceClass::Tile, 1, false)
            .with_default(ChoiceClass::FuseVertical, false)
            .with_override(ChoiceClass::FuseVertical, 2, true);
        let mut cur = ScheduleCursor::new(sched);
        assert!(cur.decide(ChoiceClass::Tile));
        assert!(!cur.decide(ChoiceClass::Tile));
        assert!(cur.decide(ChoiceClass::Tile));
        assert!(!cur.decide(ChoiceClass::FuseVertical));
        assert!(!cur.decide(ChoiceClass::FuseVertical));
        assert!(cur.decide(ChoiceClass::FuseVertical));
    }

    #[test]
    fn label_round_trips() {
        let mut sched = Schedule::default()
            .with_default(ChoiceClass::Tile, false)
            .with_override(ChoiceClass::CoalesceInputs, 0, false)
            .with_override(ChoiceClass::CoalesceInputs, 13, false)
            .with_override(ChoiceClass::FuseStream, 7, true);
        sched.simplify.cse = false;
        sched.memplan = false;
        let label = sched.label();
        assert_eq!(Schedule::parse_label(&label), Ok(sched));
        let dflt = Schedule::default();
        assert_eq!(Schedule::parse_label(&dflt.label()), Ok(dflt));
    }

    #[test]
    fn labels_are_injective_on_distinct_schedules() {
        // The historical failure mode of name-joining labels is that two
        // different configurations render the same string. Exercise a
        // family of near-collisions: override index 12 vs indices 1 and
        // 2, empty overrides vs default flips, adjacent classes.
        let a = Schedule::default().with_override(ChoiceClass::Tile, 12, false);
        let b = Schedule::default()
            .with_override(ChoiceClass::Tile, 1, false)
            .with_override(ChoiceClass::Tile, 2, false);
        let c = Schedule::default().with_default(ChoiceClass::Tile, false);
        let d = Schedule::default().with_override(ChoiceClass::CoalesceOutputs, 12, false);
        let labels = [a.label(), b.label(), c.label(), d.label()];
        for (i, x) in labels.iter().enumerate() {
            for (j, y) in labels.iter().enumerate() {
                assert_eq!(i == j, x == y, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn malformed_labels_are_rejected() {
        let good = Schedule::default().label();
        for bad in [
            "".to_string(),
            "sched0,9:111111111,".to_string(),
            // The default label of version 1, which had nine classes.
            format!("sched1,9:111111111,{}", "1:1,".repeat(9)),
            // The default label of version 2, which had a `check` switch.
            format!("sched2,9:111111111,{}", "1:1,".repeat(8)),
            good[..good.len() - 1].to_string(),     // truncated
            format!("{good}x"),                     // trailing input
            good.replacen("8:", "08:", 1),          // non-canonical length
            good.replacen("1:1,", "6:1 1+1-,", 1),  // missing separator
            good.replacen("1:1,", "7:1 2+ 1-,", 1), // unsorted overrides
            good.replacen("1:1,", "7:1 1+ 1-,", 1), // duplicate site
            good.replacen("1:1,", "5:1 01+,", 1),   // non-canonical index
            good.replacen("8:11111111", "9:111111111", 1), // wrong bit count
        ] {
            assert!(
                Schedule::parse_label(&bad).is_err(),
                "accepted malformed label {bad:?}"
            );
        }
    }

    #[test]
    fn describe_summarises_deviations() {
        assert_eq!(Schedule::default().describe(), "default");
        let s = Schedule::default()
            .with_default(ChoiceClass::Tile, false)
            .with_override(ChoiceClass::FuseVertical, 3, false);
        assert_eq!(s.describe(), "-fuse_vertical@3 -tile");
    }
}

//! The two FinPar benchmarks (LocVolCalib and OptionPricing).

use super::{f32s, i, i64s_mod, rng};
use crate::{Benchmark, PaperNumbers, Reference, Suite};
use futhark::Schedule;
use futhark_core::{ArrayVal, Value};

/// Both FinPar benchmarks.
pub fn benchmarks() -> Vec<Benchmark> {
    vec![locvolcalib(), optionpricing()]
}

/// LocVolCalib: an outer map over options containing a sequential
/// time-stepping loop with inner maps and a scan (the tridag pattern).
/// "Exploiting all parallelism requires the compiler to interchange the
/// outer map and the sequential loop" (§6.1) — rule G7. The AMD slowdown
/// comes from the coalescing transpositions being relatively more
/// expensive there.
fn locvolcalib() -> Benchmark {
    let source = "\
fun main (no: i64) (nx: i64) (steps: i64) (strikes: [no]f32) (grid: [nx]f32): [no]f32 =
  let xs = iota nx
  let nxm1 = nx - 1
  let mid = nx / 2
  let vals = map (\\(str: f32) ->
    let v0 = map (\\(x: f32) -> max (x - str) 0.0f32) grid
    let v = loop (cur = v0) for t < steps do (
      let smoothed = map (\\(j: i64) ->
        let jm = max (j - 1) 0
        let jp = min (j + 1) nxm1
        in 0.25f32 * cur[jm] + 0.5f32 * cur[j] + 0.25f32 * cur[jp]) xs
      let sums = scan (+) 0.0f32 smoothed
      let lastv = sums[nxm1]
      let nrm = lastv + 1.0f32
      let nxt = map (\\(s: f32) (v: f32) -> v + 0.001f32 * (s / nrm)) sums smoothed
      in nxt)
    in v[mid]) strikes
  in vals"
        .to_string();
    let mk = |no: usize, nx: usize, steps: i64, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![
            i(no as i64),
            i(nx as i64),
            i(steps),
            f32s(&mut g, no, 0.5, 1.5),
            Value::Array(ArrayVal::from_f32s(
                (0..nx).map(|j| j as f32 / nx as f32 * 2.0).collect(),
            )),
        ]
    };
    Benchmark {
        name: "LocVolCalib",
        suite: Suite::FinPar,
        paper_dataset: "large dataset",
        scaled_dataset: "256 options × 64 grid points, 32 time steps".into(),
        args: mk(256, 64, 32, 101),
        small_args: mk(8, 8, 3, 102),
        source,
        reference: Reference {
            source: None,
            schedule: Schedule::default(),
            adjust_nv: 0.92,
            adjust_amd: 0.62,
            note: "the hand-optimised FinPar implementation is slightly faster \
                   (0.94× NVIDIA) and substantially faster on AMD, where \
                   Futhark's coalescing transpositions are relatively more \
                   expensive (§6.1); modelled as 0.92×/0.62×",
        },
        amd_reference: true,
        paper: PaperNumbers {
            nv_ref: Some(1211.1),
            nv_fut: 1293.2,
            amd_ref: Some(3117.0),
            amd_fut: Some(5015.8),
        },
    }
}

/// OptionPricing: a map-reduce composition over Sobol-style quasi-random
/// paths with an inherently sequential, in-place Brownian-bridge step per
/// path — "primarily measures how well the compiler sequentialises excess
/// parallelism inside the complex map function" (§6.1).
fn optionpricing() -> Benchmark {
    let source = "\
fun main (npaths: i64) (m: i64) (dirvec: [m]i64) (pow2: [m]i64) (grays: [npaths]i64): f32 =
  let payoff = stream_red (+)
    (\\(chunk: i64) (acc: f32) (gs: [chunk]i64) ->
      loop (a = acc) for ii < chunk do (
        let gray = gs[ii]
        let x = loop (s = 0) for j < m do (
          let p = pow2[j]
          let bit = (gray / p) % 2
          let dv = dirvec[j]
          in s + dv * bit)
        let u = (f32 x) / 1048576.0f32
        let z = replicate 8 0.0f32
        let zf = loop (zz = z) for l < 8 do (
          let lv = f32 (l + 1)
          in zz with [l] <- u * lv)
        let bridged = loop (s = 0.0f32) for l < 8 do (
          let v = zf[l]
          in s + v)
        let pay = max (bridged - 2.0f32) 0.0f32
        in a + pay))
    0.0f32 grays
  let scale = f32 npaths
  in payoff / scale"
        .to_string();
    let mk = |npaths: usize, m: usize, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        let dirvec: Vec<i64> = (0..m).map(|j| ((j * 2654435761) % 1021) as i64).collect();
        let pow2: Vec<i64> = (0..m).map(|j| 1i64 << j).collect();
        vec![
            i(npaths as i64),
            i(m as i64),
            Value::Array(ArrayVal::from_i64s(dirvec)),
            Value::Array(ArrayVal::from_i64s(pow2)),
            i64s_mod(&mut g, npaths, 1 << (m as i64).min(20)),
        ]
    };
    Benchmark {
        name: "OptionPricing",
        suite: Suite::FinPar,
        paper_dataset: "large dataset",
        scaled_dataset: "16384 paths, 16 Sobol bits, 8-step Brownian bridge".into(),
        args: mk(16384, 16, 111),
        small_args: mk(64, 8, 112),
        source,
        reference: Reference {
            source: None,
            schedule: Schedule::default(),
            adjust_nv: 1.27,
            adjust_amd: 1.19,
            note: "the hand-written FinPar kernel leaves the indirectly-indexed \
                   Sobol accesses uncoalesced (its polyhedral tools cannot fix \
                   them, §7) while Futhark's transposition approach succeeds; \
                   modelled as 1.27×/1.19× (the paper's measured ratios)",
        },
        amd_reference: true,
        paper: PaperNumbers {
            nv_ref: Some(136.0),
            nv_fut: 106.8,
            amd_ref: Some(429.5),
            amd_fut: Some(360.8),
        },
    }
}

//! The Parboil benchmark (MRI-Q), selected by the paper "mainly to
//! demonstrate tiling".

use super::{f32s, i, rng};
use crate::{Benchmark, PaperNumbers, Reference, Suite};
use futhark::{ChoiceClass, Schedule};
use futhark_core::Value;

/// The Parboil benchmarks used (MRI-Q only).
pub fn benchmarks() -> Vec<Benchmark> {
    vec![mriq()]
}

/// MRI-Q: for every voxel, a reduction over all k-space samples of
/// cos/sin-weighted contributions. The k-space arrays are invariant to the
/// parallel dimension, which is exactly the 1-D block-tiling pattern of
/// Section 5.2. The reference "leaves unoptimised … the spatial/temporal
/// locality of reference" (§1) — modelled by disabling tiling and
/// coalescing for it.
fn mriq() -> Benchmark {
    let source = "\
fun main (nv: i64) (nk: i64) (x: [nv]f32) (kx: [nk]f32) (phi: [nk]f32): ([nv]f32, [nv]f32) =
  let (qrs, qis) = map (\\(xv: f32) ->
    let (qr, qi) = loop (qr = 0.0f32, qi = 0.0f32) for j < nk do (
      let k = kx[j]
      let p = phi[j]
      let angle = k * xv
      let c = cos angle
      let s = sin angle
      in (qr + p * c, qi + p * s))
    in (qr, qi)) x
  in (qrs, qis)"
        .to_string();
    let mk = |nv: usize, nk: usize, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![
            i(nv as i64),
            i(nk as i64),
            f32s(&mut g, nv, -1.0, 1.0),
            f32s(&mut g, nk, -std::f32::consts::PI, std::f32::consts::PI),
            f32s(&mut g, nk, 0.0, 1.0),
        ]
    };
    Benchmark {
        name: "MRI-Q",
        suite: Suite::Parboil,
        paper_dataset: "large dataset",
        scaled_dataset: "4096 voxels × 512 k-space samples".into(),
        args: mk(4096, 512, 121),
        small_args: mk(32, 16, 122),
        source,
        reference: Reference {
            source: None,
            schedule: Schedule::default()
                .with_default(ChoiceClass::Tile, false)
                .with_coalescing(false),
            adjust_nv: 1.0,
            adjust_amd: 1.0,
            note: "the reference leaves locality unoptimised (§1); modelled by \
                   disabling block tiling and coalescing",
        },
        amd_reference: true,
        paper: PaperNumbers {
            nv_ref: Some(20.2),
            nv_fut: 15.5,
            amd_ref: Some(17.9),
            amd_fut: Some(14.3),
        },
    }
}

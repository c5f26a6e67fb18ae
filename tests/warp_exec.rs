//! The warp execution engine must be observationally identical to the
//! per-lane reference engine (a kernel decoded by
//! [`DecodedKernel::reference`], a program converted by
//! [`Compiled::into_reference`]): for any program, outputs, faults, and
//! every [`KernelStats`] counter are bit-identical between the two. This
//! suite checks that end to end over every corpus fixture and every paper
//! program, and then pins the divergence machinery directly at the launch
//! level, at one and at four host threads: all-lanes-diverge branch trees,
//! a single active lane in a full grid, alternating masks, partial warps
//! and fully inactive warps at the grid tail, per-lane loop trip counts,
//! a local-memory exchange across a barrier, and identical fault
//! reporting. The masked-lane tests verify that inactive lanes never write
//! registers, memory, or counters.

use futhark::{Compiled, Compiler, Device, PerfReport, RunOptions, Schedule};
use futhark_core::{Buffer, CmpOp, Scalar, ScalarType, Value};
use futhark_fuzz::corpus;
use futhark_gpu::kernel::{KExp, KParam, KStm, Kernel};
use futhark_gpu::sim::{Arg, DeviceMemory, KernelStats, SimError};
use futhark_gpu::{launch, DecodedKernel, DeviceProfile};
use std::path::PathBuf;

/// Runs `compiled` on `device`, normalising errors to display strings so
/// faulting programs can be compared too.
fn outcome(
    compiled: &Compiled,
    device: Device,
    args: &[Value],
) -> Result<(Vec<Value>, PerfReport), String> {
    compiled
        .run_with_opts(device, args, RunOptions::default())
        .map_err(|e| e.to_string())
}

/// Runs `compiled` on both devices, then converts it once for the
/// per-lane reference and runs that on both devices, and asserts
/// bit-identical outcomes.
fn engines_agree_on_program(label: &str, compiled: Compiled, args: &[Value]) {
    let devices = [Device::Gtx780, Device::W8100];
    let warp = devices.map(|device| outcome(&compiled, device, args));
    let per_lane = compiled
        .into_reference()
        .expect("decodes for the reference");
    for (device, warp) in devices.into_iter().zip(warp) {
        let lane = outcome(&per_lane, device, args);
        assert_eq!(
            warp, lane,
            "{label}: warp engine diverged from per-lane on {device:?}"
        );
    }
}

#[test]
fn corpus_is_bit_identical_across_engines() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus dir readable")
        .filter_map(|entry| {
            let path = entry.expect("dir entry").path();
            (path.extension().and_then(|x| x.to_str()) == Some("fut")).then_some(path)
        })
        .collect();
    fixtures.sort();
    assert!(!fixtures.is_empty());
    for path in fixtures {
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let args = corpus::parse_fixture(&text).expect("fixture header");
        let compiled = match Compiler::new().compile(&text) {
            Ok(c) => c,
            Err(_) => continue, // compile-time faults have no launches to compare
        };
        engines_agree_on_program(&path.display().to_string(), compiled, &args);
    }
    // The paper programs on their small datasets: float arithmetic,
    // tiling and segmented reductions that the i64 fixtures never reach.
    for b in futhark_bench::all_benchmarks() {
        let compiled = b
            .compile(Schedule::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", b.name));
        engines_agree_on_program(b.name, compiled, &b.small_args);
    }
}

// ---------------------------------------------------------------------------
// Launch-level divergence stress: hand-built kernels exercising specific
// mask shapes, run on both engines with fresh memory each time.
// ---------------------------------------------------------------------------

/// `a < b` on i64 kernel expressions.
fn lt(a: KExp, b: KExp) -> KExp {
    KExp::Cmp(CmpOp::Lt, Box::new(a), Box::new(b))
}

/// `a == b` on i64 kernel expressions.
fn eq(a: KExp, b: KExp) -> KExp {
    KExp::Cmp(CmpOp::Eq, Box::new(a), Box::new(b))
}

/// A kernel decoder: [`DecodedKernel::decode`] for the warp engine, or
/// [`DecodedKernel::reference`] for the per-lane reference engine.
type Decode = fn(&Kernel) -> Result<DecodedKernel, SimError>;

/// Runs one launch of `kernel`, decoded by `decode`, at the given host
/// thread count against fresh device memory and returns the stats plus
/// the final contents of every buffer argument.
fn run_launch(
    kernel: &Kernel,
    num_threads: u64,
    setup: &dyn Fn(&mut DeviceMemory) -> Vec<Arg>,
    decode: Decode,
    threads: usize,
) -> Result<(KernelStats, Vec<Buffer>), String> {
    let device = DeviceProfile::gtx780();
    let dk = decode(kernel).expect("decode");
    let mut mem = DeviceMemory::new();
    let args = setup(&mut mem);
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    let stats = launch(&device, &dk, num_threads, &args, &mut mem, &opts)
        .map_err(|e| e.to_string())?
        .stats;
    let bufs = args
        .iter()
        .filter_map(|a| match a {
            Arg::Buffer(id) => Some(mem.download(*id).expect("download").clone()),
            _ => None,
        })
        .collect();
    Ok((stats, bufs))
}

/// Runs the kernel on both engines, each at one and at four host threads,
/// and asserts bit-identical stats, buffers, and faults; returns the
/// (shared) observation.
fn engines_agree(
    label: &str,
    kernel: &Kernel,
    num_threads: u64,
    setup: &dyn Fn(&mut DeviceMemory) -> Vec<Arg>,
) -> Result<(KernelStats, Vec<Buffer>), String> {
    let warp = run_launch(kernel, num_threads, setup, DecodedKernel::decode, 1);
    for threads in [1, 4] {
        let lane = run_launch(
            kernel,
            num_threads,
            setup,
            DecodedKernel::reference,
            threads,
        );
        assert_eq!(
            warp, lane,
            "{label}: per-lane engine at {threads} thread(s) diverged from warp at 1"
        );
    }
    let par = run_launch(kernel, num_threads, setup, DecodedKernel::decode, 4);
    assert_eq!(
        warp, par,
        "{label}: warp engine at 4 threads diverged from 1"
    );
    warp
}

/// Uploads `n` copies of `fill` as an i64 buffer.
fn sentinel_buf(mem: &mut DeviceMemory, n: usize, fill: i64) -> Arg {
    Arg::Buffer(mem.upload(Buffer::I64(vec![fill; n])).expect("in capacity"))
}

fn i64s(buf: &Buffer) -> &[i64] {
    match buf {
        Buffer::I64(v) => v,
        other => panic!("expected i64 buffer, found {other:?}"),
    }
}

/// Every warp fully diverges: a two-level branch tree on lane-id residues
/// sends each lane down one of four paths, each writing a different
/// function of the lane id.
#[test]
fn all_lanes_diverge() {
    let n = 300usize;
    let path = |v: i64| KStm::GlobalWrite {
        buf: 0,
        index: KExp::GlobalId,
        value: KExp::GlobalId.mul(KExp::i64(v)).add(KExp::i64(v)),
    };
    let kernel = Kernel {
        name: "diverge4".into(),
        params: vec![
            KParam::Buffer(ScalarType::I64),
            KParam::Scalar(ScalarType::I64),
        ],
        locals: vec![],
        num_regs: 1,
        num_priv: 0,
        prov_table: vec![],
        body: vec![KStm::If {
            cond: lt(KExp::GlobalId, KExp::ScalarArg(1)),
            then_s: vec![KStm::If {
                cond: eq(KExp::GlobalId.rem(KExp::i64(2)), KExp::i64(0)),
                then_s: vec![KStm::If {
                    cond: eq(KExp::GlobalId.rem(KExp::i64(4)), KExp::i64(0)),
                    then_s: vec![path(3)],
                    else_s: vec![path(5)],
                }],
                else_s: vec![KStm::If {
                    cond: eq(KExp::GlobalId.rem(KExp::i64(4)), KExp::i64(1)),
                    then_s: vec![path(7)],
                    else_s: vec![path(11)],
                }],
            }],
            else_s: vec![],
        }],
    };
    let setup =
        |mem: &mut DeviceMemory| vec![sentinel_buf(mem, n, -1), Arg::Scalar(Scalar::I64(n as i64))];
    let (_, bufs) = engines_agree("all_lanes_diverge", &kernel, n as u64, &setup).expect("clean");
    let got = i64s(&bufs[0]);
    for (i, &x) in got.iter().enumerate() {
        let v = match i % 4 {
            0 => 3,
            2 => 5,
            1 => 7,
            _ => 11,
        };
        assert_eq!(x, i as i64 * v + v, "lane {i} took the wrong path");
    }
}

/// One active lane in a grid of 512: every other lane is masked off and
/// must not touch memory or the traffic counters.
#[test]
fn single_active_lane() {
    let n = 512usize;
    let kernel = Kernel {
        name: "one_lane".into(),
        params: vec![KParam::Buffer(ScalarType::I64)],
        locals: vec![],
        num_regs: 1,
        num_priv: 0,
        prov_table: vec![],
        body: vec![KStm::If {
            cond: eq(KExp::GlobalId, KExp::i64(7)),
            then_s: vec![KStm::GlobalWrite {
                buf: 0,
                index: KExp::i64(0),
                value: KExp::i64(42),
            }],
            else_s: vec![],
        }],
    };
    let setup = |mem: &mut DeviceMemory| vec![sentinel_buf(mem, n, -1)];
    let (stats, bufs) =
        engines_agree("single_active_lane", &kernel, n as u64, &setup).expect("clean");
    let got = i64s(&bufs[0]);
    assert_eq!(got[0], 42);
    assert!(
        got[1..].iter().all(|&x| x == -1),
        "a masked lane wrote memory"
    );
    // Only the single active lane may count towards memory traffic.
    assert_eq!(
        stats.useful_bytes, 8,
        "masked lanes contributed to useful_bytes"
    );
    assert_eq!(stats.threads, n as u64);
}

/// Alternating mask: even lanes write, odd lanes sit out and must leave
/// their sentinel untouched.
#[test]
fn alternating_mask_writes() {
    let n = 200usize;
    let kernel = Kernel {
        name: "alternating".into(),
        params: vec![KParam::Buffer(ScalarType::I64)],
        locals: vec![],
        num_regs: 1,
        num_priv: 0,
        prov_table: vec![],
        body: vec![KStm::If {
            cond: eq(KExp::GlobalId.rem(KExp::i64(2)), KExp::i64(0)),
            then_s: vec![KStm::GlobalWrite {
                buf: 0,
                index: KExp::GlobalId,
                value: KExp::GlobalId.mul(KExp::i64(10)),
            }],
            else_s: vec![],
        }],
    };
    let setup = |mem: &mut DeviceMemory| vec![sentinel_buf(mem, n, -1)];
    let (_, bufs) = engines_agree("alternating_mask", &kernel, n as u64, &setup).expect("clean");
    let got = i64s(&bufs[0]);
    for (i, &x) in got.iter().enumerate() {
        if i % 2 == 0 {
            assert_eq!(x, i as i64 * 10, "active lane {i} missing its write");
        } else {
            assert_eq!(x, -1, "masked lane {i} wrote memory");
        }
    }
}

/// Partial warp at the grid tail: 70 threads is two full warps plus a
/// 6-lane remainder; the ghost lanes of the tail warp must not write.
#[test]
fn partial_tail_warp() {
    let n = 70usize;
    let buf_len = 128usize;
    let kernel = Kernel {
        name: "tail".into(),
        params: vec![KParam::Buffer(ScalarType::I64)],
        locals: vec![],
        num_regs: 1,
        num_priv: 0,
        prov_table: vec![],
        body: vec![KStm::GlobalWrite {
            buf: 0,
            index: KExp::GlobalId,
            value: KExp::GlobalId.add(KExp::i64(1)),
        }],
    };
    let setup = |mem: &mut DeviceMemory| vec![sentinel_buf(mem, buf_len, -1)];
    let (_, bufs) = engines_agree("partial_tail_warp", &kernel, n as u64, &setup).expect("clean");
    let got = i64s(&bufs[0]);
    for (i, &x) in got.iter().enumerate() {
        if i < n {
            assert_eq!(x, i as i64 + 1);
        } else {
            assert_eq!(x, -1, "ghost lane {i} past the grid end wrote memory");
        }
    }
}

/// Warps with no active lanes at all: a guard keeps only the first five
/// lanes of a large grid live, so whole warps (and whole groups) execute
/// the guarded body with an all-false mask — they must be a no-op for
/// memory and counters alike.
#[test]
fn empty_warps_at_grid_tail() {
    let n = 1024usize;
    let live = 5i64;
    let kernel = Kernel {
        name: "mostly_empty".into(),
        params: vec![KParam::Buffer(ScalarType::I64)],
        locals: vec![],
        num_regs: 2,
        num_priv: 0,
        prov_table: vec![],
        body: vec![KStm::If {
            cond: lt(KExp::GlobalId, KExp::i64(live)),
            then_s: vec![
                KStm::Assign {
                    var: 0,
                    exp: KExp::GlobalId.mul(KExp::GlobalId),
                },
                KStm::GlobalWrite {
                    buf: 0,
                    index: KExp::GlobalId,
                    value: KExp::Var(0),
                },
            ],
            else_s: vec![],
        }],
    };
    let setup = |mem: &mut DeviceMemory| vec![sentinel_buf(mem, n, -1)];
    let (stats, bufs) =
        engines_agree("empty_warps_at_grid_tail", &kernel, n as u64, &setup).expect("clean");
    let got = i64s(&bufs[0]);
    for (i, &x) in got.iter().enumerate() {
        if (i as i64) < live {
            assert_eq!(x, (i as i64) * (i as i64));
        } else {
            assert_eq!(x, -1, "masked lane {i} wrote memory");
        }
    }
    assert_eq!(
        stats.useful_bytes,
        live as u64 * 8,
        "empty warps contributed to memory traffic"
    );
}

/// Masked lanes must not write registers either: every lane initialises
/// its register, even lanes overwrite it inside a branch, and the final
/// unconditional store observes the result. A masking bug that lets odd
/// lanes execute the branch body destroys their original value.
#[test]
fn masked_lanes_never_write_registers() {
    let n = 96usize;
    let kernel = Kernel {
        name: "reg_mask".into(),
        params: vec![KParam::Buffer(ScalarType::I64)],
        locals: vec![],
        num_regs: 1,
        num_priv: 0,
        prov_table: vec![],
        body: vec![
            KStm::Assign {
                var: 0,
                exp: KExp::GlobalId.mul(KExp::i64(5)),
            },
            KStm::If {
                cond: eq(KExp::GlobalId.rem(KExp::i64(2)), KExp::i64(0)),
                then_s: vec![KStm::Assign {
                    var: 0,
                    exp: KExp::i64(0),
                }],
                else_s: vec![],
            },
            KStm::GlobalWrite {
                buf: 0,
                index: KExp::GlobalId,
                value: KExp::Var(0),
            },
        ],
    };
    let setup = |mem: &mut DeviceMemory| vec![sentinel_buf(mem, n, -1)];
    let (_, bufs) =
        engines_agree("masked_register_writes", &kernel, n as u64, &setup).expect("clean");
    let got = i64s(&bufs[0]);
    for (i, &x) in got.iter().enumerate() {
        let expect = if i % 2 == 0 { 0 } else { i as i64 * 5 };
        assert_eq!(x, expect, "lane {i}'s register was clobbered");
    }
}

/// Per-lane trip counts: each lane loops `GlobalId % 5` times, so every
/// warp's lanes peel off the loop at different iterations.
#[test]
fn per_lane_trip_counts() {
    let n = 128usize;
    let kernel = Kernel {
        name: "varloop".into(),
        params: vec![KParam::Buffer(ScalarType::I64)],
        locals: vec![],
        num_regs: 3,
        num_priv: 0,
        prov_table: vec![],
        body: vec![
            KStm::Assign {
                var: 0,
                exp: KExp::i64(0),
            },
            KStm::For {
                var: 1,
                bound: KExp::GlobalId.rem(KExp::i64(5)),
                body: vec![KStm::Assign {
                    var: 0,
                    exp: KExp::Var(0).add(KExp::Var(1)).add(KExp::i64(1)),
                }],
            },
            KStm::GlobalWrite {
                buf: 0,
                index: KExp::GlobalId,
                value: KExp::Var(0),
            },
        ],
    };
    let setup = |mem: &mut DeviceMemory| vec![sentinel_buf(mem, n, -1)];
    let (_, bufs) =
        engines_agree("per_lane_trip_counts", &kernel, n as u64, &setup).expect("clean");
    let got = i64s(&bufs[0]);
    for (i, &x) in got.iter().enumerate() {
        let trips = i as i64 % 5;
        let expect: i64 = (0..trips).map(|t| t + 1).sum();
        assert_eq!(x, expect, "lane {i} ran the wrong number of iterations");
    }
}

/// Faults must be identical across engines, including which lane's fault
/// wins: lane 90 reads out of bounds, everything else is fine.
#[test]
fn faults_are_identical_across_engines() {
    let n = 128usize;
    let small = 90usize;
    let kernel = Kernel {
        name: "oob".into(),
        params: vec![
            KParam::Buffer(ScalarType::I64),
            KParam::Buffer(ScalarType::I64),
        ],
        locals: vec![],
        num_regs: 1,
        num_priv: 0,
        prov_table: vec![],
        body: vec![
            KStm::GlobalRead {
                var: 0,
                buf: 0,
                index: KExp::GlobalId,
            },
            KStm::GlobalWrite {
                buf: 1,
                index: KExp::GlobalId,
                value: KExp::Var(0),
            },
        ],
    };
    let setup =
        |mem: &mut DeviceMemory| vec![sentinel_buf(mem, small, 9), sentinel_buf(mem, n, -1)];
    let err = engines_agree("identical_faults", &kernel, n as u64, &setup)
        .expect_err("lane 90 must fault");
    assert!(
        err.contains("out of bounds") || err.contains("bounds"),
        "unexpected fault text: {err}"
    );
}

/// Local memory across a barrier: every lane stages its element in the
/// group's local tile, and after the barrier reads its right neighbour's
/// (wrapping within the group). Four full groups, so the four-thread
/// runs execute groups in parallel, each with its own tile.
#[test]
fn local_rotate_across_a_barrier() {
    let group = DeviceProfile::gtx780().group_size as usize;
    let n = 4 * group;
    let kernel = Kernel {
        name: "local_rotate".into(),
        params: vec![
            KParam::Buffer(ScalarType::F64),
            KParam::Buffer(ScalarType::F64),
            KParam::Scalar(ScalarType::I64),
        ],
        locals: vec![(ScalarType::F64, KExp::GroupSize)],
        num_regs: 2,
        num_priv: 0,
        prov_table: vec![],
        body: vec![
            KStm::If {
                cond: lt(KExp::GlobalId, KExp::ScalarArg(2)),
                then_s: vec![
                    KStm::GlobalRead {
                        var: 0,
                        buf: 0,
                        index: KExp::GlobalId,
                    },
                    KStm::LocalWrite {
                        mem: 0,
                        index: KExp::LocalId,
                        value: KExp::Var(0),
                    },
                ],
                else_s: vec![],
            },
            KStm::Barrier,
            KStm::If {
                cond: lt(KExp::GlobalId, KExp::ScalarArg(2)),
                then_s: vec![
                    KStm::LocalRead {
                        var: 1,
                        mem: 0,
                        index: KExp::LocalId.add(KExp::i64(1)).rem(KExp::GroupSize),
                    },
                    KStm::GlobalWrite {
                        buf: 1,
                        index: KExp::GlobalId,
                        value: KExp::Var(1),
                    },
                ],
                else_s: vec![],
            },
        ],
    };
    let setup = |mem: &mut DeviceMemory| {
        let xs = Buffer::F64((0..n).map(|i| i as f64 * 0.5).collect());
        vec![
            Arg::Buffer(mem.upload(xs).expect("in capacity")),
            Arg::Buffer(mem.alloc(ScalarType::F64, n).expect("in capacity")),
            Arg::Scalar(Scalar::I64(n as i64)),
        ]
    };
    let (stats, bufs) = engines_agree("local_rotate", &kernel, n as u64, &setup).expect("clean");
    let Buffer::F64(got) = &bufs[1] else {
        panic!("expected f64 output, found {:?}", bufs[1]);
    };
    for (i, &x) in got.iter().enumerate() {
        let src = i - i % group + (i + 1) % group;
        assert_eq!(x, src as f64 * 0.5, "lane {i} read the wrong neighbour");
    }
    assert_eq!(stats.barriers, 4, "one barrier per group");
}

/// An empty grid (zero threads) launches no warps at all and must be a
/// clean no-op on both engines.
#[test]
fn zero_thread_launch() {
    let kernel = Kernel {
        name: "empty_grid".into(),
        params: vec![KParam::Buffer(ScalarType::I64)],
        locals: vec![],
        num_regs: 1,
        num_priv: 0,
        prov_table: vec![],
        body: vec![KStm::GlobalWrite {
            buf: 0,
            index: KExp::GlobalId,
            value: KExp::i64(1),
        }],
    };
    let setup = |mem: &mut DeviceMemory| vec![sentinel_buf(mem, 8, -1)];
    let (stats, bufs) = engines_agree("zero_thread_launch", &kernel, 0, &setup).expect("clean");
    assert_eq!(stats.threads, 0);
    assert!(i64s(&bufs[0]).iter().all(|&x| x == -1));
}

/// A divergence-heavy fuzz sample (nested parity branches, data-dependent
/// loop trip counts) is bit-identical across engines end to end — the
/// in-tree miniature of the CI campaign.
#[test]
fn divergent_fuzz_sample_is_engine_invariant() {
    use futhark_fuzz::{generate, GenConfig, Strategy};
    let cfg = GenConfig {
        strategy: Strategy::Divergent,
        ..GenConfig::default()
    };
    let mut compiled_ok = 0u64;
    for seed in 0..40u64 {
        let case = generate(seed, &cfg);
        let src = case.source();
        let compiled = match Compiler::new().compile(&src) {
            Ok(c) => c,
            Err(_) => continue,
        };
        compiled_ok += 1;
        let args = case.args();
        let device = [Device::Gtx780, Device::W8100][(seed % 2) as usize];
        let warp = outcome(&compiled, device, &args);
        let per_lane = compiled
            .into_reference()
            .expect("decodes for the reference");
        let lane = outcome(&per_lane, device, &args);
        assert_eq!(
            warp, lane,
            "seed {seed}: warp engine diverged from per-lane on {device:?}\n{src}"
        );
    }
    assert!(
        compiled_ok > 20,
        "sample degenerate: only {compiled_ok}/40 cases compiled"
    );
}

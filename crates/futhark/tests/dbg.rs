use futhark::{Schedule, ScheduleCursor, SimplifyToggles};

#[test]
fn dbg() {
    let b = futhark_bench::benchmark("Fluid").unwrap();
    let (mut prog, mut ns) = futhark_frontend::parse_program(&b.source).unwrap();
    futhark_opt::simplify::simplify_program(&mut prog, &mut ns, &SimplifyToggles::default());
    let mut cur = ScheduleCursor::new(Schedule::default());
    futhark_opt::fusion::fuse_program(&mut prog, &mut ns, &mut cur);
    println!("AFTER FUSION:\n{prog}");
}

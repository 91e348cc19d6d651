//! Table I: runtime of the `kin_prop()` function across the optimization
//! ladder (paper §IV-C). CPU rows are measured on this machine; GPU rows
//! report the A100 roofline model's time for the same (really executed)
//! kernels, including the `nowait` ablation of the last row.

use std::time::Instant;

use dcmesh_bench::{fmt_s, fmt_x, paper, BenchArgs};
use dcmesh_core::metrics::Table;
use dcmesh_device::{Device, LaunchPolicy};
use dcmesh_grid::WfAos;
use dcmesh_lfd::kinetic::{Axis, KineticPropagator, StepFraction};

fn main() {
    // Table I needs enough per-pass work that launch overheads do not
    // dominate the modeled device rows: default to half the paper scale.
    let args = BenchArgs::parse_with_default(0.5);
    let mesh = args.mesh();
    let norb = args.norb();
    let n_qd = args.n_qd();
    println!("Table I reproduction — kin_prop() optimization ladder");
    println!("{}", args.describe());
    println!("(timing: {n_qd} QD steps of the x-direction stencil, like the paper)\n");
    args.init_obs();

    let mut init = WfAos::<f64>::zeros(mesh.clone(), norb);
    init.randomize(1);
    let prop = KineticPropagator::new(mesh.clone(), 0.04, 1.0);
    let block = (norb / 2).max(1);

    // Algorithm 1 (AoS baseline, measured).
    let mut aos = init.clone();
    let t0 = Instant::now();
    for _ in 0..n_qd {
        prop.apply_axis_alg1(&mut aos, Axis::X, StepFraction::Full);
    }
    let t_alg1 = t0.elapsed().as_secs_f64();

    // Algorithm 3 (SoA + loop interchange, measured).
    let mut soa = init.to_soa();
    let t0 = Instant::now();
    for _ in 0..n_qd {
        prop.apply_axis_alg3(&mut soa, Axis::X, StepFraction::Full);
    }
    let t_alg3 = t0.elapsed().as_secs_f64();

    // Algorithm 4 (+ blocking, measured).
    let mut soa4 = init.to_soa();
    let t0 = Instant::now();
    for _ in 0..n_qd {
        prop.apply_axis_alg4(&mut soa4, Axis::X, StepFraction::Full, block);
    }
    let t_alg4 = t0.elapsed().as_secs_f64();

    // Algorithm 5 on the modeled device: the same kernels under both launch
    // policies; only the modeled host clock tells the rows apart.
    let [t_alg5_async, t_alg5_sync] = [LaunchPolicy::Async, LaunchPolicy::Sync].map(|policy| {
        let dev = Device::a100();
        let mut s = init.to_soa();
        for _ in 0..n_qd {
            prop.apply_axis_alg5(
                &mut s,
                Axis::X,
                StepFraction::Full,
                block,
                Some((&dev, policy)),
            );
        }
        dev.synchronize()
    });

    let rows: [(&str, &str, f64, bool); 5] = [
        ("Algorithm 1", "CPU", t_alg1, false),
        ("Algorithm 3", "CPU", t_alg3, false),
        ("Algorithm 4", "CPU", t_alg4, false),
        ("Algorithm 5", "GPU", t_alg5_async, true),
        ("Algorithm 5 (disable nowait)", "GPU", t_alg5_sync, true),
    ];

    let mut table = Table::new(&[
        "Implementation",
        "Target",
        "Runtime (s)",
        "Speedup",
        "Paper (s)",
        "Paper speedup",
        "Source",
    ]);
    for ((name, target, t, modeled), (pname, _, pt, px)) in rows.iter().zip(paper::TABLE1.iter()) {
        assert_eq!(*name, *pname);
        table.row(&[
            name.to_string(),
            target.to_string(),
            fmt_s(*t),
            fmt_x(t_alg1 / t),
            fmt_s(*pt),
            fmt_x(*px),
            if *modeled {
                "modeled (A100 roofline)"
            } else {
                "measured"
            }
            .to_string(),
        ]);
    }
    println!("{}", table.render());
    let nowait_gain = (t_alg5_sync - t_alg5_async) / t_alg5_async * 100.0;
    println!(
        "asynchronous (nowait) gain over synchronous: {:.2}% (paper: 10.35%)",
        nowait_gain
    );
    println!(
        "\nshape check: Alg3 > 1x, Alg4 >= Alg3, GPU >> CPU, async > sync — compare columns above."
    );
    args.finish_obs();
}

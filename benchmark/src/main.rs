//! The dcmesh benchmark.
//!
//! ```text
//! dcmesh-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dcmesh-benchmark [--seed <n>] [--seconds <s>] [--out <file>]   every workload, both passes
//! dcmesh-benchmark --smoke                                       every workload, a few operations
//! dcmesh-benchmark --check-repeat <A.json> <B.json>              compare two result sets
//! ```
//!
//! `--samples` adds the raw operation times, in order, to a one-workload
//! run's output.
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload in
//! this process (the size of the global pool is fixed per process), every
//! metric printed by name with its unit, the outputs checked against an
//! independent reference, and one JSON object as the last line. What the
//! workloads and metrics are, and why, is in `benchmark/README.md`.

mod host;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use spec::{Better, Metric};
use workloads::{Plan, Timed, Workload};

/// Environment variables that change what the program under test does; a
/// run neither inherits them nor passes them on.
const SCRUBBED_ENV: [&str; 6] = [
    "DCMESH_THREADS",
    "DCMESH_SIMD",
    "DCMESH_TUNE",
    "DCMESH_FAULT_PLAN",
    "DCMESH_RACECHECK",
    "DCMESH_COMM_DEADLINE_MS",
];

/// Where span files, result sets and the tuner's cache go: inside the
/// benchmark's own directory, never `bench_results/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_ops: usize,
    segments: Option<usize>,
    verify: bool,
    threads: Option<usize>,
    smoke: bool,
    samples: bool,
    out: Option<PathBuf>,
    check_repeat: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        min_ops: 100,
        segments: None,
        verify: true,
        threads: None,
        smoke: false,
        samples: false,
        out: None,
        check_repeat: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known = Workload::ALL.map(Workload::name).join(", ");
                    format!("unknown workload {name:?}; the workloads are {known}")
                })?);
            }
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => args.seconds = num(flag, value()?)?,
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--min-ops" => args.min_ops = num(flag, value()?)?,
            "--segments" => args.segments = Some(num(flag, value()?)?),
            "--threads" => args.threads = Some(num(flag, value()?)?),
            "--no-verify" => args.verify = false,
            "--smoke" => args.smoke = true,
            "--samples" => args.samples = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--check-repeat" => {
                let a = PathBuf::from(value()?);
                args.check_repeat = Some((a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds >= 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside 0..=60", args.seconds));
    }
    if args.segments == Some(0) || args.min_ops == 0 || args.threads == Some(0) {
        return Err("--segments, --min-ops and --threads must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any other thread exists.
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    std::env::set_var("DCMESH_TUNE_DIR", out_dir());
    // `Service::start` asks git for the commit it runs at; keep that search
    // inside the directory the benchmark was started in.
    if let Some(above) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", above);
    }

    if let Some((a, b)) = &args.check_repeat {
        return check_repeat(a, b);
    }
    match args.workload {
        Some(workload) => run_one(workload, &args, process_start),
        None => run_all(&args),
    }
}

// ---------------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------------

fn run_one(workload: Workload, args: &Args, process_start: Instant) -> ExitCode {
    let threads = args.threads.unwrap_or(workload.threads());
    dcmesh_pool::set_thread_override(threads);

    // Hang safety: a run that outlives three times its expected length is
    // ended from here and reports its operations as failed, so that a
    // deadlock in the program under test is a failure, not a hung benchmark.
    let extra = if args.trace { 25.0 } else { 0.0 };
    let cap_s = (3.0 * (args.seconds + workload.expected_overhead_s() + extra)).min(170.0);
    let name = workload.name();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs_f64(cap_s));
        eprintln!(
            "benchmark: {name} hit its wall cap of {cap_s:.0} s; \
             every operation still outstanding counts as failed"
        );
        std::process::exit(3);
    });

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# dcmesh benchmark: workload {name}, seed {}, window {} s, trace {}, \
         pool threads {threads}, available parallelism {cores}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print_working_set(workload, args.seed);

    let plan = Plan {
        process_start,
        seconds: args.seconds,
        min_ops: args.min_ops,
        segments: args.segments.unwrap_or(workload.segments()),
        verify: args.verify,
    };
    let (timed, metrics) = if args.trace {
        let traced = probes::trace(workload, args.seed, &plan);
        let metrics = spec::PER_LAYER
            .iter()
            .map(|m| (*m, traced.layers.get(m.name)))
            .collect();
        (traced.timed, metrics)
    } else {
        let timed = workloads::run(workload, args.seed, &plan);
        let metrics = end_to_end(&timed);
        (timed, metrics)
    };
    if args.samples {
        // In the order they were taken: how the host's speed moved during
        // the run shows here and nowhere else.
        let ms: Vec<String> = timed
            .op_s
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect();
        println!("# samples_ms {}", ms.join(" "));
    }
    report(&timed, &metrics)
}

/// Bytes of wavefunction state the timed kernels sweep, beside the caches.
fn print_working_set(workload: Workload, seed: u64) {
    let (domains, per_domain) = workloads::working_set(workload, seed);
    let caches = host::caches();
    println!(
        "# working set: {domains} domain(s) x {per_domain} B of wavefunctions; \
         this host's L2 is {} B per core, its last-level cache {} B",
        caches.l2_bytes, caches.llc_bytes
    );
}

/// The end-to-end metrics of a timed pass.
fn end_to_end(timed: &Timed) -> Vec<(Metric, Option<f64>)> {
    let value = |name: &str| match name {
        "setup_s" => Some(stats::median(&timed.setup_s)),
        "op_p10_s" => Some(timed.op_p10_s()),
        "peak_rss_mb" => host::peak_rss_mb(),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    // Printed on every run, bounded on none: see `spec::END_TO_END`.
    println!(
        "# op_p50_s {} s (reported, not bounded)",
        stats::median(&timed.op_s)
    );
    match stats::tail_quantile(&timed.op_s, 0.9) {
        Ok(p90) => println!("# op_p90_s {p90} s (reported, not bounded)"),
        Err(why) => println!("# op_p90_s: {why}"),
    }
    println!(
        "# ops_per_s {} 1/s (reported, not bounded)",
        timed.ops_per_s()
    );
    println!(
        "# {} set-up(s) {:.3?} s; {} operations timed in {:.3} s; one operation is {} QD steps, \
         so qd_steps_per_s = {:.1}",
        timed.setup_s.len(),
        timed.setup_s,
        timed.op_s.len(),
        timed.window_s,
        timed.qd_steps_per_op,
        timed.qd_steps_per_op * timed.ops_per_s()
    );
    spec::END_TO_END
        .iter()
        .map(|m| (*m, value(m.name)))
        .collect()
}

/// Print every metric, the checks and the result line; pick the exit code.
fn report(timed: &Timed, metrics: &[(Metric, Option<f64>)]) -> ExitCode {
    for (m, value) in metrics {
        match value {
            Some(v) => println!("{} {v} {}", m.name, m.unit),
            None => println!("{} not reported", m.name),
        }
    }
    for c in &timed.checks {
        let verdict = if c.ok { "ok    " } else { "FAILED" };
        println!("# check {verdict} {}: {}", c.name, c.detail);
    }
    let (attempted, failed) = timed.attempted_failed();
    println!(
        "# failed_share {} ({failed} of {attempted}); physics digest {:016x} (for information)",
        failed as f64 / attempted.max(1) as f64,
        timed.physics_digest()
    );
    println!("{}", result_line(timed, metrics).render());
    if timed.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: {failed} of {attempted} operations or checks failed");
        ExitCode::FAILURE
    }
}

/// The object the contract wants on the last line of output.
fn result_line(timed: &Timed, metrics: &[(Metric, Option<f64>)]) -> Json {
    let (attempted, failed) = timed.attempted_failed();
    Json::obj([
        ("correct", Json::Bool(timed.correct())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().filter_map(|(m, value)| {
                let entry = [
                    ("value", Json::Num((*value)?)),
                    ("unit", Json::Str(m.unit.into())),
                ];
                Some((m.name, Json::obj(entry)))
            })),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Children
// ---------------------------------------------------------------------------

/// Run this executable again with `args` and return its exit status and
/// the result object on the last line of its output. The child ends
/// itself at its wall cap, so waiting for it cannot hang.
fn run_child(args: &[String], echo: bool) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for var in SCRUBBED_ENV {
        command.env_remove(var);
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last)
        .map_err(|e| format!("child {args:?} ({}) printed no result: {e}", output.status))?;
    Ok((output.status.success(), result))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `op_p10_s` of `workload` in a short child run with a pool of `threads`.
pub fn child_op_p10(workload: Workload, seed: u64, threads: usize) -> f64 {
    let args = [
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
        "--threads",
        &threads.to_string(),
        "--seconds",
        "2",
        "--min-ops",
        "10",
        "--segments",
        "1",
        "--no-verify",
    ]
    .map(String::from);
    let (_, result) = run_child(&args, false).unwrap_or_else(|e| panic!("{e}"));
    metric_value(&result, "op_p10_s").expect("child reports op_p10_s")
}

/// Every workload, untraced then traced, each in a child of its own;
/// writes the result set `--check-repeat` reads.
fn run_all(args: &Args) -> ExitCode {
    let mut all_ok = true;
    let mut sets = Vec::new();
    let started = Instant::now();
    for workload in Workload::ALL {
        let mut entry = vec![];
        let passes: &[bool] = if args.smoke { &[false] } else { &[false, true] };
        for &trace in passes {
            let mut child = vec![
                "--workload".to_string(),
                workload.name().into(),
                "--seed".into(),
                args.seed.to_string(),
                "--trace".into(),
                u8::from(trace).to_string(),
            ];
            if args.smoke {
                // Eight operations: `lfd_sp` compares precisions at step 10,
                // two of which are warm-up.
                child.extend(
                    ["--seconds", "0", "--min-ops", "8", "--segments", "1"].map(String::from),
                );
            } else {
                child.extend(["--seconds".to_string(), args.seconds.to_string()]);
            }
            let key = if trace { "per_layer" } else { "end_to_end" };
            match run_child(&child, true) {
                Ok((ok, result)) => {
                    all_ok &= ok && result.get("correct").and_then(Json::as_bool) == Some(true);
                    entry.push((key.to_string(), result));
                }
                Err(e) => {
                    // A child that was ended at its wall cap, or crashed.
                    eprintln!("benchmark: {}: {e}", workload.name());
                    all_ok = false;
                }
            }
        }
        sets.push((workload.name().to_string(), Json::Obj(entry)));
    }
    println!(
        "# all workloads ran in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::Obj(sets)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"));
    match written {
        Ok(()) => println!("# result set written to {}", path.display()),
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// --check-repeat
// ---------------------------------------------------------------------------

/// Share by which `b` is worse than `a` (negative when it is better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare two result sets of `run_all` against the bounds: every
/// end-to-end metric x workload is printed as within or outside.
fn check_repeat(a: &Path, b: &Path) -> ExitCode {
    let load = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outside = 0;
    for workload in Workload::ALL {
        let pass = |set: &Json| {
            set.get("workloads")?
                .get(workload.name())?
                .get("end_to_end")
                .cloned()
        };
        let (Some(ra), Some(rb)) = (pass(&a), pass(&b)) else {
            println!("{:<13} missing from a result set: outside", workload.name());
            outside += 1;
            continue;
        };
        for m in spec::END_TO_END {
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let verdict = match (metric_value(&ra, m.name), metric_value(&rb, m.name)) {
                (Some(va), Some(vb)) => {
                    let w = worsening(m.better, va, vb);
                    let verdict = if w <= bound { "within" } else { "outside" };
                    format!(
                        "{va:>12.6} -> {vb:>12.6} {:<4} {:+7.2}% of {:.0}%: {verdict}",
                        m.unit,
                        w * 100.0,
                        bound * 100.0
                    )
                }
                _ => "not reported: outside".to_string(),
            };
            outside += usize::from(verdict.ends_with("outside"));
            println!("{:<13} {:<12} {verdict}", workload.name(), m.name);
        }
        let failed = |r: &Json| {
            r.get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::INFINITY)
        };
        let verdict = if failed(&rb) <= failed(&ra) {
            "within"
        } else {
            "outside"
        };
        outside += usize::from(verdict == "outside");
        println!(
            "{:<13} {:<12} {:>12} -> {:>12} failed operations (any increase counts): {verdict}",
            workload.name(),
            "failed",
            failed(&ra),
            failed(&rb)
        );
    }
    if outside == 0 {
        println!("every end-to-end metric x workload is within its bound");
        ExitCode::SUCCESS
    } else {
        println!("{outside} metric x workload pairs are outside their bounds");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = args(&[
            "--workload",
            "lfd_sp",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::LfdSp), 7, 15.0, true)
        );
        assert_eq!((a.min_ops, a.segments, a.verify), (100, None, true));
        assert!(args(&["--workload", "nope"])
            .unwrap_err()
            .contains("traj_lfd"));
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "61"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--segments", "0"]).is_err());
    }

    /// The result line carries exactly the contract's keys and exactly the
    /// end-to-end metrics with their units.
    #[test]
    fn result_line_lists_every_end_to_end_metric() {
        let mut timed = Timed {
            setup_s: vec![0.5, 0.4, 0.6],
            op_s: (1..=100).map(|i| f64::from(i) * 1e-3).collect(),
            window_s: 5.05,
            attempted: 100,
            ..Timed::default()
        };
        let line = result_line(&timed, &end_to_end(&timed));
        let keys: Vec<&str> = line
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").and_then(Json::members).unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        for ((name, entry), m) in metrics.iter().zip(spec::END_TO_END) {
            assert_eq!(name, m.name);
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert!(
                entry.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{name}"
            );
        }
        assert_eq!(metric_value(&line, "op_p10_s"), Some(0.011));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.5));

        // A failed operation makes the run incorrect.
        timed.failed = 1;
        let line = result_line(&timed, &end_to_end(&timed));
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed"), Some(&Json::Num(1.0)));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 8.0) - 0.2).abs() < 1e-12);
        assert!(worsening(Better::Lower, 1.0, 0.9) < 0.0);
    }
}

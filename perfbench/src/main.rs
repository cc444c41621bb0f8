//! `perfbench` — the deco-serve end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <churn50k|fleet|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`): generates the workload's inputs from the seed,
//! builds the service and drives it for `--seconds` from a
//! single-threaded load generator, then builds it `SETUP_REPS - 1` more
//! times (`setup_s` is the median build) and reports the end-to-end
//! metrics. Traced (`--trace 1`):
//! drives the service once with every submit timed, then replays the
//! batches directly on both stores and reports the per-layer ledger.
//!
//! Human-readable lines come first (`metric <name> <value> <unit>`, an
//! `env {...}` block, the ledger table); the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when any correctness check fails, 2 on bad arguments.
//! `perfbench/METRICS.md` defines every metric.

mod alloc;
mod drive;
mod gen;
mod ledger;
mod procfs;
mod stats;

use deco_serve::ServeConfig;
use gen::{Traffic, Workload};
use stats::{median_of, sorted, tail_or_fallback};
use std::fmt::Write as _;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Service builds per untraced run; `setup_s` reports their median.
const SETUP_REPS: usize = 5;

/// A commit whose serve-side overhead exceeds the run's median overhead
/// by more than this stalled (a missed wakeup costs ~50 ms).
const STALL_MARGIN_MS: f64 = 25.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// One run's outcome, printed as the human-readable block plus the final
/// JSON line.
#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    /// `env` block entries, values already JSON-encoded.
    env: Vec<(String, String)>,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    fn env(&mut self, key: &str, json: String) {
        self.env.push((key.to_string(), json));
    }

    fn print(&self) {
        for p in self.problems.iter().take(20) {
            println!("problem {p}");
        }
        if self.problems.len() > 20 {
            println!("problem ... and {} more", self.problems.len() - 20);
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {} {unit}", json_num(*value));
        }
        let env: Vec<String> =
            self.env.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
        println!("env {{{}}}", env.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The rustc that `cargo` builds with, as `rustc --version` prints it.
fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc").arg("--version").output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (loose or packed ref); `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| Some(l.strip_suffix(name)?.strip_suffix(' ')?.to_string()))
}

/// Host facts sampled at the start and the end of the measured phase.
struct HostWindow {
    ticks: Option<procfs::HostTicks>,
    load: Option<[f64; 3]>,
    proc: Option<procfs::ProcStat>,
}

impl HostWindow {
    fn now() -> HostWindow {
        HostWindow {
            ticks: procfs::host_now(),
            load: procfs::loadavg_now(),
            proc: procfs::self_stat(),
        }
    }
}

/// Records the environment block: machine, toolchain, code and host load
/// over the measured phase.
fn environment(r: &mut Report, args: &Args, w: &Workload, a: &HostWindow, b: &HostWindow) {
    r.env("workload", json_str(w.name));
    r.env("seed", args.seed.to_string());
    r.env("seconds", args.seconds.to_string());
    r.env("trace", args.trace.to_string());
    r.env("nproc", nproc().to_string());
    r.env("shards", serve_config().shards().to_string());
    let rustc = rustc_version().unwrap_or_else(|| "unknown".into());
    r.env("rustc", json_str(&rustc));
    let commit = git_commit().unwrap_or_else(|| "unknown".into());
    r.env("git_commit", json_str(&commit));
    if let (Some(t0), Some(t1)) = (a.ticks, b.ticks) {
        let d = t1.since(t0);
        r.env("host_ticks", d.total.to_string());
        r.env("steal_ticks", d.steal.to_string());
        r.env("steal_share", json_num(d.steal_share()));
    }
    let load = |l: &Option<[f64; 3]>| {
        l.map_or("null".to_string(), |l| format!("[{}, {}, {}]", l[0], l[1], l[2]))
    };
    r.env("loadavg_start", load(&a.load));
    r.env("loadavg_end", load(&b.load));
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The fixed tail percentile of a latency sample, recorded with its
/// support in the environment block under `label`.
fn tail_metric(r: &mut Report, label: &str, sample: Vec<f64>, permille: u32) -> f64 {
    match tail_or_fallback(&sorted(sample), permille) {
        Some((t, fallback)) => {
            r.env(
                label,
                format!(
                    "{{\"permille\": {}, \"samples\": {}, \"beyond\": {}, \"fallback\": {fallback}}}",
                    t.permille, t.samples, t.beyond
                ),
            );
            t.value
        }
        None => {
            r.problems.push(format!("{label}: too few commits for any tail percentile"));
            0.0
        }
    }
}

/// The percentiles of a sorted sample that keep enough samples beyond
/// them to be read as a tail, for choosing and auditing the fixed tail.
fn quantiles(sorted: &[f64]) -> String {
    let mut parts = Vec::new();
    for permille in [500, 750, 900, 950, 990, 995, 999] {
        if permille == 500 || stats::tail(sorted, permille).is_some() {
            parts.push(format!(
                "\"p{}\": {}",
                permille as f64 / 10.0,
                json_num(stats::percentile(sorted, permille))
            ));
        }
    }
    format!("{{{}}}", parts.join(", "))
}

/// Every workload's service: one shard per available core, the rest at
/// its defaults.
fn serve_config() -> ServeConfig {
    ServeConfig::default().with_shards(nproc())
}

/// Failed batches, with the engine errors the tenants survived counted
/// in. Each error discarded a batch, which then never became visible and
/// so is already among the drive's failures; the maximum keeps the
/// errors counted without counting them twice.
fn failed_batches(d: &drive::Drive, engine_errors: u64) -> u64 {
    d.failed.max(engine_errors)
}

fn untraced(w: &Workload, args: &Args) -> Report {
    let b = drive::build(w, serve_config());
    let mut setups = vec![b.setup.as_secs_f64()];

    let h0 = HostWindow::now();
    let d = drive::drive(&b, w, args.seconds as f64, false);
    let h1 = HostWindow::now();
    let (problems, engine_errors) = drive::final_check(&b);
    let fingerprint = b.serve.fleet_fingerprint();
    // Peak RSS covers one service's life; the extra setups below reuse
    // freed heap unevenly, so they come after this reading.
    let rss_kb = procfs::peak_rss_kb().unwrap_or(0);
    b.serve.shutdown();
    for _ in 1..SETUP_REPS {
        let b = drive::build(w, serve_config());
        setups.push(b.setup.as_secs_f64());
        b.serve.shutdown();
    }

    let mut r = Report::default();
    let commits = d.visible.len();
    let latencies: Vec<f64> = d.visible.iter().map(|v| ms(v.latency)).collect();
    let used = match (h0.proc, h1.proc) {
        (Some(a), Some(b)) => b.since(a),
        _ => procfs::ProcStat::default(),
    };
    let per_commit = |x: f64| x / commits.max(1) as f64;
    r.metric("setup_s", median_of(setups.clone()), "s");
    r.metric("visible_p50_ms", median_of(latencies.clone()), "ms");
    let tail = tail_metric(&mut r, "visible_tail", latencies.clone(), w.tail_permille);
    r.metric("visible_tail_ms", tail, "ms");
    r.metric("cpu_ms_per_commit", per_commit(used.cpu_s() * 1e3), "ms");
    r.metric("peak_rss_mb", rss_kb as f64 / 1024.0, "MiB");
    r.attempted = d.attempted.max(1);
    r.failed = failed_batches(&d, engine_errors);
    r.metric("ok_frac", stats::ok_frac(r.attempted, r.failed), "ratio");

    environment(&mut r, args, w, &h0, &h1);
    r.env("setups_s", format!("{:?}", setups));
    r.env("commits", commits.to_string());
    r.env("cpu_user_s", json_num(used.utime as f64 / procfs::USER_HZ));
    r.env("cpu_sys_s", json_num(used.stime as f64 / procfs::USER_HZ));
    r.env("input_mb", json_num(w.input_bytes() as f64 / (1024.0 * 1024.0)));
    r.env("epoch_skips", d.epoch_skips.to_string());
    r.env("rejected_ops", d.rejected_ops.to_string());
    if let Some(first) = &d.first_rejection {
        r.env("first_rejection", json_str(first));
    }
    r.env("engine_errors", engine_errors.to_string());
    if !d.late.is_empty() {
        let late: Vec<f64> = d.late.iter().map(|&l| ms(l)).collect();
        r.env("late_ms_p99", json_num(stats::percentile(&sorted(late), 990)));
    }
    r.env("fleet_fingerprint", json_str(&format!("{fingerprint:016x}")));
    r.env("visible_quantiles_ms", quantiles(&sorted(latencies)));
    r.problems.extend(d.problems);
    r.problems.extend(problems);
    if commits == 0 {
        r.problems.push("no commit became visible".to_string());
    }
    r.correct = r.problems.is_empty();
    r
}

fn traced(w: &Workload, args: &Args) -> Report {
    let b = drive::build(w, serve_config());
    let h0 = HostWindow::now();
    let d = drive::drive(&b, w, args.seconds as f64, true);
    let h1 = HostWindow::now();
    let walls: Vec<Vec<Duration>> =
        b.ids.iter().map(|&id| b.serve.commit_walls(id).expect("registered")).collect();
    let (problems, engine_errors) = drive::final_check(&b);
    let fingerprint = b.serve.fleet_fingerprint();
    b.serve.shutdown();

    let mut r = Report::default();
    let mut engine = Vec::with_capacity(d.visible.len());
    let mut overhead = Vec::with_capacity(d.visible.len());
    for v in &d.visible {
        let Some(&wall) = walls[v.tenant].get(v.epoch as usize - 1) else {
            r.problems.push(format!("tenant {}: no commit wall for epoch {}", v.tenant, v.epoch));
            continue;
        };
        engine.push(ms(wall));
        overhead.push(ms(v.latency) - ms(wall));
    }
    let engine_p50 = median_of(engine.clone());
    r.metric(
        "serve.submit_us_per_op",
        d.submit.as_secs_f64() * 1e6 / d.submitted_ops.max(1) as f64,
        "us",
    );
    r.metric("serve.engine_ms_p50", engine_p50, "ms");
    let t = tail_metric(&mut r, "engine_tail", engine, w.tail_permille);
    r.metric("serve.engine_ms_tail", t, "ms");
    r.metric("serve.overhead_ms_p50", median_of(overhead.clone()), "ms");
    let stalled = stats::stalled(&overhead, STALL_MARGIN_MS);
    let t = tail_metric(&mut r, "overhead_tail", overhead, w.tail_permille);
    r.metric("serve.overhead_ms_tail", t, "ms");
    r.metric("serve.stalled_commits", stalled as f64, "count");
    r.metric("serve.commits", d.visible.len() as f64, "count");
    let reads: Vec<f64> = d.visible.iter().map(|v| v.read.as_secs_f64() * 1e6).collect();
    r.metric("serve.read_us", median_of(reads), "us");
    let late: Vec<f64> = d.late.iter().map(|&l| ms(l)).collect();
    let late_p99 = if late.is_empty() { 0.0 } else { stats::percentile(&sorted(late), 990) };
    r.metric("serve.late_ms_p99", late_p99, "ms");
    r.metric("serve.rejected_ops", d.rejected_ops as f64, "count");

    let l = ledger::replay(w);
    let per_store = [
        ("serve.publish_ms", "ms"),
        ("stream.commit_ms", "ms"),
        ("stream.unattributed_ms", "ms"),
        ("stream.verify_ms", "ms"),
        ("stream.allocs_per_commit", "count"),
        ("graph.commit_ms", "ms"),
        ("graph.commit_bytes", "bytes"),
    ];
    for (key, unit) in per_store {
        for store in ["legacy", "segmented"] {
            let name = format!("{key}.{store}");
            r.metric(&name, l.median(&name), unit);
        }
    }
    for (name, unit) in [
        ("stream.repair_ms", "ms"),
        ("stream.finalize_ms", "ms"),
        ("stream.region_edges", "count"),
        ("stream.region_vertices", "count"),
        ("graph.to_graph_ms", "ms"),
        ("graph.region_extract_ms", "ms"),
        ("local.network_build_ms", "ms"),
        ("local.rounds", "count"),
        ("local.node_rounds", "count"),
        ("local.messages", "count"),
        ("local.us_per_node_round", "us"),
        ("core.schedule_ms", "ms"),
        ("core.cv_node_rounds", "count"),
        ("core.pr_assign_node_rounds", "count"),
    ] {
        r.metric(name, l.median(name), unit);
    }
    r.metric("stream.from_scratch_commits", l.total("stream.from_scratch_commits"), "count");
    let inserted = l.total("stream.inserted").max(1.0);
    r.metric("stream.recolored_per_inserted", l.total("stream.recolored") / inserted, "ratio");
    let native = median_of(l.native_commit_ms.clone());
    r.metric("trace.overhead_ratio", native / engine_p50.max(1e-9), "ratio");

    print_ledger(&l);
    environment(&mut r, args, w, &h0, &h1);
    r.env("replayed_commits", l.commits.to_string());
    r.env("engine_errors", engine_errors.to_string());
    r.env("fleet_fingerprint", json_str(&format!("{fingerprint:016x}")));
    r.attempted = d.attempted.max(1);
    r.failed = failed_batches(&d, engine_errors);
    r.problems.extend(d.problems);
    r.problems.extend(problems);
    r.problems.extend(l.problems);
    if d.visible.is_empty() || l.commits == 0 {
        r.problems.push("nothing was measured".to_string());
    }
    r.correct = r.problems.is_empty();
    r
}

/// Prints each layer's mean share of the engine commit per store, with
/// the unattributed remainder (carry and region derivation).
fn print_ledger(l: &ledger::Ledger) {
    println!("ledger (mean ms per commit, share of the engine commit)");
    let repair = [
        ("graph.region_extract_ms", "region extract (edge_induced)"),
        ("local.network_build_ms", "network build (Network::new)"),
        ("core.schedule_ms", "schedule (edge_color_in_groups)"),
        ("stream.finalize_ms", "finalize"),
    ];
    for store in ["legacy", "segmented"] {
        let commit = l.mean(&format!("stream.commit_ms.{store}"));
        println!("  {store}: stream commit {commit:.3} ms");
        let share = |x: f64| 100.0 * x / commit.max(1e-9);
        let graph = l.mean(&format!("graph.commit_ms.{store}"));
        println!("    {:<34} {graph:>9.3} ms {:>6.1}%", "graph commit", share(graph));
        for (key, label) in repair {
            let v = l.mean(key);
            println!("    {label:<34} {v:>9.3} ms {:>6.1}%", share(v));
        }
        let un = l.mean(&format!("stream.unattributed_ms.{store}"));
        println!("    {:<34} {un:>9.3} ms {:>6.1}%", "unattributed (carry, region)", share(un));
    }
}

/// `--workload all`: runs every workload in its own process and prints a
/// combined result with metric names prefixed by workload.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all = Report { correct: true, ..Report::default() };
    for name in gen::NAMES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawn workload run");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        println!("== {name}");
        for line in &lines {
            println!("{line}");
            let mut f = line.split(' ');
            if let (Some("metric"), Some(m), Some(v), Some(u)) =
                (f.next(), f.next(), f.next(), f.next())
            {
                all.metric(&format!("{name}.{m}"), v.parse().unwrap_or(f64::NAN), u);
            }
        }
        let field = |key: &str| -> Option<&str> {
            let at = last.find(&format!("\"{key}\": "))? + key.len() + 4;
            last[at..].split([',', '}']).next()
        };
        all.attempted += field("attempted").and_then(|v| v.parse().ok()).unwrap_or(0);
        all.failed += field("failed").and_then(|v| v.parse().ok()).unwrap_or(0);
        if !out.status.success() || field("correct") != Some("true") {
            all.correct = false;
            all.problems.push(format!("{name}: exit {:?}", out.status.code()));
        }
    }
    all.print();
    if all.correct {
        0
    } else {
        1
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <churn50k|fleet|all> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let Some(w) = gen::workload(&args.workload, args.seed, args.seconds) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    if let Traffic::Open { rate_per_s } = w.traffic {
        println!(
            "{}: open loop at {rate_per_s} commits/s over {} tenants",
            w.name,
            w.tenants.len()
        );
    }
    let report = if args.trace { traced(&w, &args) } else { untraced(&w, &args) };
    report.print();
    std::process::exit(if report.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = args(&["--workload", "fleet", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("fleet", 7, 10, true));
        assert!(args(&["--seed", "7"]).is_err(), "workload is required");
        assert!(args(&["--workload", "fleet", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "fleet", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "fleet", "--seed"]).is_err());
        assert!(args(&["--workload", "fleet", "--bogus", "1"]).is_err());
    }

    #[test]
    fn json_output_escapes_and_guards_numbers() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(f64::NAN), "0");
    }
}

//! End-to-end and per-layer benchmark of the EchelonFlow simulator and of
//! the paper's coordinator path.
//!
//! ```text
//! benchmark [--seed S] [--repeats N] [--smoke] [--out FILE]
//!     Every workload, each in its own child process, one after another:
//!     1 warm-up, N timed runs (default 8), 1 traced run. Prints a table
//!     and writes the full report (provenance, raw per-run values, every
//!     metric) to FILE (default target/benchmark/report.json).
//! benchmark --workload W [--seed S] [--repeats N | --seconds T] [--trace 0|1] [--smoke]
//!     One workload in this process: warm-up, then N timed runs or timed
//!     runs for T seconds (at least 8), then (with --trace 1) the traced
//!     run. The last line of standard output is one JSON object with the
//!     end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//! benchmark --compare BASE NEW
//!     Medians, quartiles and a verdict per workload and end-to-end
//!     metric, against the bounds in BENCHMARK.json.
//! ```
//!
//! Every run checks its output: every flow or job must complete, every
//! run of instance 0 (warm-up, first timed run, traced run) must give the
//! same completion digest, and at the default seed that digest must equal
//! the one committed in `digests.txt`.

mod heap;
mod json;
mod stats;
mod traced;
mod workloads;

#[cfg(test)]
mod tests;

use json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use traced::Interval;
use workloads::{AllocLayer, Outcome, SetupTimes, Size, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The seed whose digests are committed in `digests.txt`.
const DEFAULT_SEED: u64 = 1;
/// Instances whose pooled outcomes give the simulated metrics
/// (`p50_ct_s`, `tail_ct_s`, `tardiness_s`). A `--seconds` budget always
/// runs at least these, so the simulated metrics of a seed never depend
/// on machine speed.
const SIM_INSTANCES: usize = 8;
/// Timed runs per workload when neither `--repeats` nor `--seconds` is
/// given: one per simulated-metric instance.
const DEFAULT_REPEATS: usize = SIM_INSTANCES;
/// Set-up-only repetitions behind `setup_s`, in a burst after each timed
/// run: until the burst has taken the first (seconds), at most the second.
const SETUP_BURST: (f64, usize) = (0.03, 100);
/// Expected completion digests at [`DEFAULT_SEED`].
const DIGESTS: &str = include_str!("digests.txt");
/// Where spans and the default report go.
const OUT_DIR: &str = "target/benchmark";
/// Prefix of the line carrying one workload's full result.
const DETAIL_PREFIX: &str = "detail ";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark reports: `BENCHMARK.json` lists the same names
/// and units (a test pins the two together).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    def("flow_events_per_s", "1/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_heap_mb", "MiB", Lower),
    def("p50_ct_s", "sim_s", Lower),
    def("tail_ct_s", "sim_s", Lower),
    def("tardiness_s", "sim_s", Lower),
];

/// Per-layer metrics, from the traced run. Every time (`_s`, `_us`) is
/// measured on every workload: the rate policy is the coordinator on
/// `echelon-dag`. Layers only some workloads have report shares, counts
/// and ratios, which read 0 where the layer is absent.
pub const PER_LAYER: [MetricDef; 36] = [
    def("workload.generate_s", "s", Lower),
    def("placement.place_frac", "ratio", Lower),
    def("placement.pods_spanned_mean", "pods", Lower),
    def("coordinator.register_frac", "ratio", Lower),
    def("coordinator.decisions", "count", Lower),
    def("coordinator.decision_ratio", "ratio", Lower),
    def("coordinator.book_peak", "count", Lower),
    def("service.admit_calls", "count", Lower),
    def("service.admit_frac", "ratio", Lower),
    def("service.admit_yield", "ratio", Higher),
    def("service.backlog_peak", "count", Lower),
    def("service.retire_frac", "ratio", Lower),
    def("service.book_peak", "count", Lower),
    def("service.rejected", "count", Lower),
    def("policy.alloc_calls", "count", Lower),
    def("policy.alloc_s", "s", Lower),
    def("policy.alloc_p50_us", "us", Lower),
    def("policy.alloc_p99_us", "us", Lower),
    def("policy.alloc_max_us", "us", Lower),
    def("policy.alloc_frac", "ratio", Lower),
    def("policy.pod_recompute_fraction", "ratio", Lower),
    def("policy.delta_fill_hit_ratio", "ratio", Higher),
    def("policy.delta_fill_attempts", "count", Lower),
    def("driver.self_s", "s", Lower),
    def("driver.self_frac", "ratio", Lower),
    def("driver.allocations", "count", Lower),
    def("driver.horizon_skips", "count", Higher),
    def("driver.alloc_batches", "count", Lower),
    def("driver.batched_events", "count", Higher),
    def("driver.fault_recomputes", "count", Lower),
    def("driver.peak_active", "count", Lower),
    def("driver.arena_capacity", "count", Lower),
    def("driver.queue_frac", "ratio", Lower),
    def("driver.write_back_frac", "ratio", Lower),
    def("driver.bookkeeping_frac", "ratio", Lower),
    def("trace.overhead_frac", "ratio", Lower),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

// ------------------------------------------------------------------ CLI

/// How many timed runs a single-workload measurement takes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Budget {
    Repeats(usize),
    Seconds(f64),
}

#[derive(Debug, PartialEq)]
enum Mode {
    All { out: String },
    One { workload: Workload, trace: bool },
    Compare { base: String, new: String },
}

#[derive(Debug, PartialEq)]
struct Cli {
    mode: Mode,
    seed: u64,
    budget: Budget,
    size: Size,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut repeats = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut out = None;
    let mut compare = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--repeats" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if n == 0 {
                    return Err("--repeats must be at least 1".into());
                }
                repeats = Some(n);
            }
            "--seconds" => {
                let s: f64 = value("a duration")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(value("a file")?),
            "--compare" => {
                let base = value("two report files")?;
                let new = value("two report files")?;
                compare = Some((base, new));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if repeats.is_some() && seconds.is_some() {
        return Err("--repeats and --seconds exclude each other".into());
    }
    if trace.is_some() && workload.is_none() {
        return Err("--trace applies to --workload (a full run always traces)".into());
    }
    if out.is_some() && (workload.is_some() || compare.is_some()) {
        return Err("--out applies to the multi-workload run".into());
    }
    let budget = match (repeats, seconds) {
        (_, Some(s)) => Budget::Seconds(s),
        (Some(n), None) => Budget::Repeats(n),
        (None, None) => Budget::Repeats(if smoke { 1 } else { DEFAULT_REPEATS }),
    };
    let mode = match (compare, workload) {
        (Some(_), Some(_)) => return Err("--compare takes no --workload".into()),
        (Some((base, new)), None) => Mode::Compare { base, new },
        (None, Some(workload)) => Mode::One {
            workload,
            trace: trace.unwrap_or(true),
        },
        (None, None) => Mode::All {
            out: out.unwrap_or_else(|| format!("{OUT_DIR}/report.json")),
        },
    };
    Ok(Cli {
        mode,
        seed,
        budget,
        size: if smoke { Size::Smoke } else { Size::Full },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &cli.mode {
        Mode::One { workload, trace } => run_one(*workload, &cli, *trace),
        Mode::All { out } => run_all(&cli, out),
        Mode::Compare { base, new } => compare(base, new),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

// ------------------------------------------------------- one workload

/// Everything one workload's measurement produced.
struct Measurement {
    workload: Workload,
    size: Size,
    seed: u64,
    /// One sample per set-up-only repetition.
    setup_s: Vec<f64>,
    /// Instance each set-up sample built.
    setup_instance: Vec<usize>,
    /// Wall seconds of each timed run, simulation only; timed run `i`
    /// runs instance `i`.
    run_s: Vec<f64>,
    /// `2 × flows / run_s` per timed run.
    events_per_s: Vec<f64>,
    /// Peak live heap each timed run added, MiB.
    heap_mb: Vec<f64>,
    /// Outcomes of instances `0..SIM_INSTANCES` (fewer when `--repeats`
    /// asks for fewer runs): the fixed set the simulated metrics pool.
    sims: Vec<Outcome>,
    /// Units offered and not completed, over every run made.
    attempted: usize,
    incomplete: usize,
    /// Failed checks, in words; empty when everything held.
    failures: Vec<String>,
    traced: Option<TracedRun>,
}

struct TracedRun {
    setup: SetupSpans,
    outcome: Outcome,
    /// Run index of the traced run (warm-up is run 0).
    run_id: usize,
}

/// The traced run's set-up phases on the trace clock.
struct SetupSpans {
    whole: Interval,
    generate: Interval,
    register: Option<Interval>,
}

fn expected_digest(workload: Workload, size: Size) -> Option<u64> {
    DIGESTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 3 && f[0] == workload.name() && f[1] == size.name())
                .then(|| u64::from_str_radix(f[2], 16).ok())
                .flatten()
        })
}

/// Measures one workload. Every run sets up afresh; timed run `i` runs
/// instance `i` (inputs from [`workloads::instance_seed`]), so a
/// measurement averages over many random inputs instead of re-timing
/// one. The warm-up and the traced run repeat instance 0, whose digest
/// every one of them must reproduce.
fn measure(workload: Workload, size: Size, seed: u64, budget: Budget, trace: bool) -> Measurement {
    let instance = |i: usize| workloads::instance_seed(seed, i);
    let sim_runs = match budget {
        Budget::Repeats(n) => n.min(SIM_INSTANCES),
        Budget::Seconds(_) => SIM_INSTANCES,
    };
    let mut setup_s = Vec::new();
    let mut setup_instance = Vec::new();
    let mut attempted = 0;
    let mut incomplete = 0;
    let mut failures = Vec::new();
    let mut instance0 = Vec::new();
    // Returns the run's set-up times, its outcome, and the peak live heap
    // it added (set-up included), in MiB.
    let mut go = |i: usize, epoch: Option<Instant>| -> (SetupTimes, Outcome, f64) {
        let base = heap::reset_peak();
        let (inputs, times) = workloads::setup(workload, size, instance(i));
        let out = workloads::run(inputs, epoch);
        let heap_mb = (heap::peak() - base) as f64 / (1024.0 * 1024.0);
        attempted += out.offered;
        incomplete += out.offered - out.completed;
        if i == 0 {
            instance0.push(out.digest);
        }
        (times, out, heap_mb)
    };

    // Warm-up: page in the code and the allocator's arenas.
    go(0, None);
    let mut run_s = Vec::new();
    let mut events_per_s = Vec::new();
    let mut sims = Vec::new();
    let mut heap_mb = Vec::new();
    let started = Instant::now();
    loop {
        let i = run_s.len();
        let (_, out, run_heap_mb) = go(i, None);
        run_s.push(out.wall_s);
        events_per_s.push(2.0 * out.flows as f64 / out.wall_s);
        heap_mb.push(run_heap_mb);
        if i < sim_runs {
            sims.push(out);
        }
        // A burst of set-ups alone after every timed run: the samples
        // spread over the whole measurement, so a short slow spell of the
        // machine cannot carry the median, and cheap set-ups still get
        // enough samples for microsecond resolution.
        let burst = Instant::now();
        for _ in 0..SETUP_BURST.1 {
            let k = setup_s.len() % SIM_INSTANCES;
            let (_, times) = workloads::setup(workload, size, instance(k));
            setup_s.push(times.whole.secs());
            setup_instance.push(k);
            if burst.elapsed().as_secs_f64() >= SETUP_BURST.0 {
                break;
            }
        }
        let done = match budget {
            Budget::Repeats(n) => run_s.len() >= n,
            Budget::Seconds(s) => {
                run_s.len() >= SIM_INSTANCES && started.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            break;
        }
    }
    let traced = trace.then(|| {
        let epoch = Instant::now();
        let (s, outcome, _) = go(0, Some(epoch));
        TracedRun {
            setup: SetupSpans {
                whole: s.whole.on(epoch),
                generate: s.generate.on(epoch),
                register: s.register.map(|r| r.on(epoch)),
            },
            outcome,
            run_id: run_s.len() + 1,
        }
    });

    if instance0.iter().any(|&d| d != instance0[0]) {
        let hex: Vec<String> = instance0.iter().map(|d| format!("{d:016x}")).collect();
        failures.push(format!(
            "runs of instance 0 disagree on the digest: {}",
            hex.join(" ")
        ));
    }
    if incomplete > 0 {
        failures.push(format!(
            "{incomplete} of {attempted} offered units did not complete"
        ));
    }
    if seed == DEFAULT_SEED {
        let digest = instance0[0];
        match expected_digest(workload, size) {
            Some(d) if d == digest => {}
            Some(d) => failures.push(format!(
                "digest {digest:016x} differs from the committed {d:016x}"
            )),
            None => failures.push(format!(
                "no committed digest for {} {} (this run: {digest:016x})",
                workload.name(),
                size.name(),
            )),
        }
    }
    Measurement {
        workload,
        size,
        seed,
        setup_s,
        setup_instance,
        run_s,
        events_per_s,
        heap_mb,
        sims,
        attempted,
        incomplete,
        failures,
        traced,
    }
}

/// Completion times pooled over the simulated-metric instances,
/// ascending.
fn pooled_ct(m: &Measurement) -> Vec<f64> {
    let mut ct: Vec<f64> = m.sims.iter().flat_map(|o| o.ct.iter().copied()).collect();
    ct.sort_by(f64::total_cmp);
    ct
}

/// One end-to-end metric: its reported value and the raw samples it
/// summarizes, with the instance each sample ran when that pairs samples
/// across reports.
struct E2e {
    name: &'static str,
    value: f64,
    values: Vec<f64>,
    instances: Option<Vec<usize>>,
}

/// The end-to-end metrics of one measurement, in [`END_TO_END`] order.
/// Timings are medians over their samples; simulated outcomes are exact
/// and pooled over the simulated-metric instances.
fn end_to_end(m: &Measurement) -> Vec<E2e> {
    let ct = pooled_ct(m);
    let (p_tail, _) = stats::tail_percentile(ct.len());
    let tardiness = m.sims.iter().map(|o| o.tardiness).sum::<f64>() / m.sims.len() as f64;
    let exact = |name, value| E2e {
        name,
        value,
        values: vec![value],
        instances: None,
    };
    vec![
        E2e {
            name: "flow_events_per_s",
            value: stats::median(&m.events_per_s),
            values: m.events_per_s.clone(),
            instances: Some((0..m.events_per_s.len()).collect()),
        },
        E2e {
            name: "setup_s",
            value: stats::median(&m.setup_s),
            values: m.setup_s.clone(),
            instances: Some(m.setup_instance.clone()),
        },
        E2e {
            name: "peak_heap_mb",
            // The mean, not the median: buffers that double make the
            // per-run peaks cluster at a few levels, and the median jumps
            // between them.
            value: m.heap_mb.iter().sum::<f64>() / m.heap_mb.len() as f64,
            values: m.heap_mb.clone(),
            instances: Some((0..m.heap_mb.len()).collect()),
        },
        exact("p50_ct_s", stats::percentile(&ct, 0.5)),
        exact("tail_ct_s", stats::percentile(&ct, p_tail)),
        exact("tardiness_s", tardiness),
    ]
}

fn sum_s(spans: &[Interval]) -> f64 {
    // A fold from +0.0: `Sum` of no floats is -0.0, which reads oddly in
    // a report.
    spans.iter().fold(0.0, |acc, s| acc + s.secs())
}

/// `(calls, busy seconds, p50 µs, p99 µs, max µs)` of a span list;
/// nearest-rank percentiles over the span durations.
fn span_summary(spans: &[Interval]) -> [f64; 5] {
    let mut us: Vec<f64> = spans.iter().map(|s| s.secs() * 1e6).collect();
    us.sort_by(f64::total_cmp);
    [
        spans.len() as f64,
        sum_s(spans),
        stats::percentile(&us, 0.5),
        stats::percentile(&us, 0.99),
        us.last().copied().unwrap_or(0.0),
    ]
}

/// The per-layer metrics of the traced run, in [`PER_LAYER`] order.
fn per_layer(m: &Measurement, t: &TracedRun) -> Vec<(&'static str, f64)> {
    let out = &t.outcome;
    let layers = out.layers.as_ref().expect("the traced run records layers");
    let st = &out.stats;
    let wall = layers.run.secs();
    let alloc = span_summary(&layers.allocs);
    let feed = layers.feed.clone().unwrap_or_default();
    let (admit_calls, admit_s) = (feed.admits.len() as f64, sum_s(&feed.admits));
    let retire_s = sum_s(&feed.retires);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let share = |secs: f64| ratio(secs, wall);
    let attempts = st.delta_fill_hits + st.delta_fill_fallbacks;
    let self_s = wall - alloc[1] - admit_s - retire_s;
    let coordinator = layers.alloc_layer == AllocLayer::Coordinator;
    let book_peak = |mine: bool| {
        if mine {
            st.peak_book_occupancy as f64
        } else {
            0.0
        }
    };
    let generate_s = t.setup.generate.secs();
    // The driver's phase timers run on flow workloads only (zero
    // elsewhere).
    let phase = |ns: u64| share(ns as f64 * 1e-9);
    vec![
        ("workload.generate_s", generate_s),
        (
            "placement.place_frac",
            ratio(layers.place.map_or(0.0, |p| p.secs()), generate_s),
        ),
        ("placement.pods_spanned_mean", out.pods_spanned_mean),
        (
            "coordinator.register_frac",
            ratio(
                t.setup.register.map_or(0.0, |r| r.secs()),
                t.setup.whole.secs(),
            ),
        ),
        ("coordinator.decisions", layers.decisions as f64),
        (
            "coordinator.decision_ratio",
            if coordinator {
                ratio(layers.decisions as f64, alloc[0])
            } else {
                0.0
            },
        ),
        ("coordinator.book_peak", book_peak(coordinator)),
        ("service.admit_calls", admit_calls),
        ("service.admit_frac", share(admit_s)),
        (
            "service.admit_yield",
            ratio(feed.admitted as f64, admit_calls),
        ),
        ("service.backlog_peak", feed.backlog_peak as f64),
        ("service.retire_frac", share(retire_s)),
        ("service.book_peak", book_peak(layers.feed.is_some())),
        ("service.rejected", out.rejected as f64),
        ("policy.alloc_calls", alloc[0]),
        ("policy.alloc_s", alloc[1]),
        ("policy.alloc_p50_us", alloc[2]),
        ("policy.alloc_p99_us", alloc[3]),
        ("policy.alloc_max_us", alloc[4]),
        ("policy.alloc_frac", share(alloc[1])),
        ("policy.pod_recompute_fraction", st.pod_recompute_fraction()),
        (
            "policy.delta_fill_hit_ratio",
            ratio(st.delta_fill_hits as f64, attempts as f64),
        ),
        ("policy.delta_fill_attempts", attempts as f64),
        ("driver.self_s", self_s),
        ("driver.self_frac", share(self_s)),
        ("driver.allocations", st.allocations as f64),
        ("driver.horizon_skips", st.horizon_skips as f64),
        ("driver.alloc_batches", st.alloc_batches as f64),
        ("driver.batched_events", st.batched_events as f64),
        ("driver.fault_recomputes", st.fault_recomputes as f64),
        ("driver.peak_active", st.peak_active as f64),
        ("driver.arena_capacity", st.arena_capacity as f64),
        ("driver.queue_frac", phase(st.phase.queue_ns)),
        ("driver.write_back_frac", phase(st.phase.write_back_ns)),
        ("driver.bookkeeping_frac", phase(st.phase.bookkeeping_ns)),
        // Timed run 0 ran the traced run's inputs untraced.
        ("trace.overhead_frac", out.wall_s / m.run_s[0] - 1.0),
    ]
}

/// Writes the traced run's spans as JSONL: one root span for the
/// set-up, one for the run, with the layer calls as their children.
fn write_spans(m: &Measurement, t: &TracedRun) -> std::io::Result<String> {
    let layers = t.outcome.layers.as_ref().expect("traced");
    let mut spans: Vec<(&str, Interval, Option<usize>)> = vec![("setup", t.setup.whole, None)];
    spans.push(("workload.generate", t.setup.generate, Some(0)));
    if let Some(r) = t.setup.register {
        spans.push(("coordinator.register", r, Some(0)));
    }
    let run = spans.len();
    spans.push(("run", layers.run, None));
    let alloc_name = match layers.alloc_layer {
        AllocLayer::Coordinator => "coordinator.alloc",
        AllocLayer::Policy => "policy.alloc",
    };
    spans.extend(layers.allocs.iter().map(|&s| (alloc_name, s, Some(run))));
    if let Some(feed) = &layers.feed {
        spans.extend(feed.admits.iter().map(|&s| ("service.admit", s, Some(run))));
        spans.extend(
            feed.retires
                .iter()
                .map(|&s| ("service.retire", s, Some(run))),
        );
    }
    if let Some(p) = layers.place {
        spans.push(("placement.place", p, None));
    }
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/{}.spans.jsonl", m.workload.name());
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (id, (name, s, parent)) in spans.iter().enumerate() {
        let parent = parent.map_or(Json::Null, Json::from);
        let line = Json::obj()
            .with("id", id)
            .with("name", *name)
            .with("start_ns", s.start_ns)
            .with("end_ns", s.end_ns)
            .with("parent", parent)
            .with("run", t.run_id);
        writeln!(w, "{line}")?;
    }
    w.flush()?;
    Ok(path)
}

fn metric_entry(name: &str, value: f64) -> Json {
    Json::obj().with("value", value).with("unit", unit_of(name))
}

/// The full result of one workload: what the multi-workload report
/// stores and `--compare` reads.
fn detail(m: &Measurement) -> Json {
    let e2e = end_to_end(m);
    let correct = m.failures.is_empty();
    let failed_frac = if correct {
        m.incomplete as f64 / m.attempted.max(1) as f64
    } else {
        1.0
    };
    let mut metrics = Json::obj();
    for e in &e2e {
        let [q1, _, q3] = stats::quartiles(&e.values);
        let mut entry = metric_entry(e.name, e.value)
            .with("q1", q1)
            .with("q3", q3)
            .with("values", e.values.clone());
        if let Some(inst) = &e.instances {
            entry.push(
                "instances",
                Json::Arr(inst.iter().map(|&i| i.into()).collect()),
            );
        }
        metrics.push(e.name, entry);
    }
    metrics.push(
        "failed_frac",
        Json::obj().with("value", failed_frac).with("unit", "ratio"),
    );
    let ct_samples = m.sims.iter().map(|o| o.ct.len()).sum::<usize>();
    let (_, tail_label) = stats::tail_percentile(ct_samples);
    let hex = |d: u64| Json::from(format!("{d:016x}"));
    let mut d = Json::obj()
        .with("workload", m.workload.name())
        .with("size", m.size.name())
        .with("seed", m.seed)
        .with("timed_runs", m.run_s.len())
        .with("run_s", m.run_s.clone())
        .with("digest", hex(m.sims[0].digest))
        .with(
            "instance_digests",
            Json::Arr(m.sims.iter().map(|o| hex(o.digest)).collect()),
        )
        .with("offered", m.sims[0].offered)
        .with("flows", m.sims[0].flows)
        .with("ct_samples", ct_samples)
        .with("tail_percentile", tail_label)
        .with("correct", correct)
        .with(
            "failures",
            Json::Arr(m.failures.iter().map(|f| Json::from(f.as_str())).collect()),
        )
        .with("end_to_end", metrics);
    if let Some(t) = &m.traced {
        let mut layers = Json::obj();
        for (name, value) in per_layer(m, t) {
            layers.push(name, metric_entry(name, value));
        }
        d.push("per_layer", layers);
    }
    d
}

fn run_one(workload: Workload, cli: &Cli, trace: bool) -> Result<bool, String> {
    let m = measure(workload, cli.size, cli.seed, cli.budget, trace);
    let correct = m.failures.is_empty();
    for f in &m.failures {
        eprintln!("benchmark: {}: {f}", workload.name());
    }
    if let Some(t) = &m.traced {
        let path = write_spans(&m, t).map_err(|e| format!("writing spans: {e}"))?;
        eprintln!("benchmark: spans written to {path}");
    }
    println!("{DETAIL_PREFIX}{}", detail(&m));
    let mut metrics = Json::obj();
    match &m.traced {
        Some(t) => {
            for (name, value) in per_layer(&m, t) {
                metrics.push(name, metric_entry(name, value));
            }
        }
        None => {
            for e in end_to_end(&m) {
                metrics.push(e.name, metric_entry(e.name, e.value));
            }
        }
    }
    let failed = if correct { m.incomplete } else { m.attempted };
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", m.attempted)
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{result}");
    Ok(correct)
}

// ------------------------------------------------------ all workloads

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(cli: &Cli) -> Json {
    let repeats = match cli.budget {
        Budget::Repeats(n) => Json::from(n),
        Budget::Seconds(_) => Json::Null,
    };
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("threads", 1usize)
        .with(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .with("git_rev", git_rev())
        .with("seed", cli.seed)
        .with("repeats", repeats)
        .with("size", cli.size.name())
}

/// Runs one workload in a child process of this binary and returns its
/// detail object.
fn run_child(workload: Workload, cli: &Cli) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--trace", "1"]);
    match cli.budget {
        Budget::Repeats(n) => cmd.args(["--repeats", &n.to_string()]),
        Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
    };
    if cli.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("{} printed no result ({})", workload.name(), out.status))?;
    Json::parse(line).map_err(|e| format!("{}: unreadable result: {e}", workload.name()))
}

/// A metric's value in a detail object's `end_to_end` or `per_layer`.
fn metric_value(d: &Json, section: &str, name: &str) -> Option<f64> {
    d.get(section)?.get(name)?.get("value")?.as_f64()
}

fn e2e_value(d: &Json, name: &str) -> f64 {
    metric_value(d, "end_to_end", name).unwrap_or(f64::NAN)
}

fn layer_value(d: &Json, name: &str) -> f64 {
    metric_value(d, "per_layer", name).unwrap_or(0.0)
}

fn print_row(d: &Json) {
    let name = d.get("workload").and_then(Json::as_str).unwrap_or("?");
    let tail = d
        .get("tail_percentile")
        .and_then(Json::as_str)
        .unwrap_or("?");
    let ev = d.get("end_to_end").and_then(|m| m.get("flow_events_per_s"));
    let q = |k: &str| {
        ev.and_then(|e| e.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    println!(
        "{name:<17} {:>10.0} ev/s [{:.0}, {:.0}]  setup {:>8.3} ms  heap {:>6.1} MiB  \
         p50 {:>8.4}  {tail} {:>8.4}  tardiness {:>10.2}  failed {}",
        q("value"),
        q("q1"),
        q("q3"),
        1e3 * e2e_value(d, "setup_s"),
        e2e_value(d, "peak_heap_mb"),
        e2e_value(d, "p50_ct_s"),
        e2e_value(d, "tail_ct_s"),
        e2e_value(d, "tardiness_s"),
        e2e_value(d, "failed_frac"),
    );
    let pct = |k: &str| 100.0 * layer_value(d, k);
    println!(
        "{:<17} traced shares: policy {:>5.1}%  admit {:>5.1}%  driver {:>5.1}%  \
         pod frac {:.3}  fill hits {:.3}  overhead {:+.1}%",
        "",
        pct("policy.alloc_frac"),
        pct("service.admit_frac"),
        pct("driver.self_frac"),
        layer_value(d, "policy.pod_recompute_fraction"),
        layer_value(d, "policy.delta_fill_hit_ratio"),
        pct("trace.overhead_frac"),
    );
}

/// What a workload is there to stress: a per-layer metric of its traced
/// run above or below a threshold.
struct Claim {
    workload: Workload,
    metric: &'static str,
    above: bool,
    threshold: f64,
}

/// Each workload's reason to exist, checked after a full-size run (smoke
/// sizes are too small to hold them). Shares depend on the machine, so a
/// claim that fails is reported, not fatal.
const CLAIMS: [Claim; 5] = [
    Claim {
        workload: Workload::PodBurst,
        metric: "policy.pod_recompute_fraction",
        above: false,
        threshold: 0.1,
    },
    Claim {
        workload: Workload::CrosspodChurn,
        metric: "policy.pod_recompute_fraction",
        above: true,
        threshold: 0.9,
    },
    Claim {
        // The rate policy on `echelon-dag` is the coordinator.
        workload: Workload::EchelonDag,
        metric: "policy.alloc_frac",
        above: true,
        threshold: 0.7,
    },
    Claim {
        workload: Workload::ServiceSteady,
        metric: "service.admit_frac",
        above: false,
        threshold: 0.2,
    },
    Claim {
        workload: Workload::ServiceOverload,
        metric: "service.admit_frac",
        above: true,
        threshold: 0.5,
    },
];

fn print_claims(d: &Json, workload: Workload) {
    for c in CLAIMS.iter().filter(|c| c.workload == workload) {
        let value = layer_value(d, c.metric);
        let held = if c.above {
            value > c.threshold
        } else {
            value < c.threshold
        };
        println!(
            "{:<17} claim: {} = {value:.3} {} {}: {}",
            "",
            c.metric,
            if c.above { ">" } else { "<" },
            c.threshold,
            if held { "held" } else { "NOT HELD" }
        );
    }
}

fn run_all(cli: &Cli, out: &str) -> Result<bool, String> {
    let started = Instant::now();
    let mut all_ok = true;
    let mut workloads = Json::obj();
    for w in Workload::ALL {
        let d = run_child(w, cli)?;
        let ok = d.get("correct") == Some(&Json::Bool(true));
        all_ok &= ok;
        print_row(&d);
        if cli.size == Size::Full {
            print_claims(&d, w);
        }
        workloads.push(w.name(), d);
    }
    let report = Json::obj()
        .with("provenance", provenance(cli))
        .with("workloads", workloads);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(out, format!("{report}\n")).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "report written to {out} ({:.1}s){}",
        started.elapsed().as_secs_f64(),
        if all_ok { "" } else { "; some checks FAILED" }
    );
    Ok(all_ok)
}

// ------------------------------------------------------------ compare

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` for a metric with the given direction and
/// bound (a share of the base median). Worse or better means the median
/// moved by more than the bound; when either side's quartile spread
/// exceeds the bound the change is unresolved, unless every new run
/// reads better than every base run.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (mb, mn) = (stats::median(base), stats::median(new));
    let worse_by = match better {
        Better::Lower => (mn - mb) / mb.abs(),
        Better::Higher => (mb - mn) / mb.abs(),
    };
    let worse_by = if mb == 0.0 && mn == 0.0 {
        0.0
    } else {
        worse_by
    };
    let beats = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
    if stats::spread(base).max(stats::spread(new)) > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Five significant digits, whatever the magnitude.
fn num(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.1 {
        format!("{x:.4e}")
    } else {
        format!("{x:.5}")
    }
}

/// Per-instance medians of a metric's samples, when the report recorded
/// the instance of each sample.
fn by_instance(entry: &Json) -> Option<BTreeMap<usize, f64>> {
    let values = entry.get("values")?.nums();
    let instances = entry.get("instances")?.nums();
    let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (v, i) in values.into_iter().zip(instances) {
        groups.entry(i as usize).or_default().push(v);
    }
    Some(
        groups
            .into_iter()
            .map(|(i, v)| (i, stats::median(&v)))
            .collect(),
    )
}

fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let spec = read_json("BENCHMARK.json")?;
    let (base, new) = (read_json(base_path)?, read_json(new_path)?);
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = |r: &Json| r.get("workloads").cloned().unwrap_or(Json::Null);
    let (bw, nw) = (workloads(&base), workloads(&new));
    let mut any_worse = false;
    println!(
        "{:<17} {:<18} {:>11} {:>23} {:>11} {:>23}  verdict (bound, better)",
        "workload", "metric", "base median", "base IQR", "new median", "new IQR"
    );
    for w in Workload::ALL {
        let (Some(b), Some(n)) = (bw.get(w.name()), nw.get(w.name())) else {
            println!("{:<17} missing from one report", w.name());
            continue;
        };
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let entry = |d: &Json| {
                d.get("end_to_end")
                    .and_then(|e| e.get(name))
                    .cloned()
                    .unwrap_or(Json::Null)
            };
            let (eb, en) = (entry(b), entry(n));
            let values = |e: &Json| e.get("values").map(Json::nums).unwrap_or_default();
            let (vb, vn) = (values(&eb), values(&en));
            if vb.is_empty() || vn.is_empty() {
                println!("{:<17} {name:<18} missing values", w.name());
                continue;
            }
            // Same seed: sample i of both reports ran the same inputs, so
            // judge the per-instance ratios, free of input-to-input spread.
            let paired = match (by_instance(&eb), by_instance(&en)) {
                (Some(pb), Some(pn)) if b.get("seed") == n.get("seed") => Some(
                    pb.iter()
                        .filter_map(|(i, &x)| pn.get(i).map(|&y| y / x))
                        .collect::<Vec<f64>>(),
                ),
                _ => None,
            };
            let v = match &paired {
                Some(ratios) if !ratios.is_empty() => verdict(&[1.0], ratios, better, bound),
                _ => verdict(&vb, &vn, better, bound),
            };
            any_worse |= v == Verdict::Worse;
            let iqr = |x: &[f64]| {
                let [q1, _, q3] = stats::quartiles(x);
                format!("{}..{}", num(q1), num(q3))
            };
            println!(
                "{:<17} {name:<18} {:>11} {:>23} {:>11} {:>23}  {}{} ({bound}, {})",
                w.name(),
                num(stats::median(&vb)),
                iqr(&vb),
                num(stats::median(&vn)),
                iqr(&vn),
                v.name(),
                if paired.is_some() { ", paired" } else { "" },
                better.name()
            );
        }
        let failed = |d: &Json| e2e_value(d, "failed_frac");
        if failed(n) > failed(b) {
            any_worse = true;
            println!(
                "{:<17} failed_frac rose: {} -> {}",
                w.name(),
                failed(b),
                failed(n)
            );
        }
        let digests = |d: &Json| d.get("instance_digests").cloned();
        println!(
            "{:<17} completion digests {}",
            w.name(),
            if digests(b) == digests(n) {
                "identical"
            } else {
                "DIFFER"
            }
        );
    }
    Ok(!any_worse)
}

//! The repository benchmark: four seeded closed-loop workloads driven
//! through the serving front door (`oorq_serve::Server`/`Session`),
//! each answer checked against an independent oracle, plus a traced
//! replay that splits a request's time by layer.
//!
//! A run without tracing reports the end-to-end metrics; a run with
//! tracing reports the per-layer metrics. `BENCHMARK.json` at the
//! repository root names both sets, and `layer_map.json` next to this
//! package says which end-to-end metric each per-layer one should move.

pub mod facts;
pub mod timed;
pub mod traced;
pub mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use oorq_obs::json::Json;

use crate::timed::Phase;
use crate::workload::{Plan, Scale, Workload};

/// Set-ups per run: at least this many, for a median.
const MIN_SETUPS: usize = 10;
/// Set-ups per run: at most this many.
const MAX_SETUPS: usize = 10_000;
/// Keep setting up until this much set-up time has been measured.
const SETUP_BUDGET_S: f64 = 2.0;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the data generators and the request stream.
    pub seed: u64,
    /// Measured time of the run, in seconds.
    pub seconds: f64,
    /// Run the traced replay (per-layer metrics) instead of the timed
    /// closed loop (end-to-end metrics).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where the traced run writes its Chrome trace and folded stacks
    /// (`None`: validate only, write nothing).
    pub out_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests sent (warm-up included).
    pub attempted: u64,
    /// Requests that failed or returned a wrong answer.
    pub failed: u64,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (printed before the result line).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Requests that failed or were wrong, over requests attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// The unit of a metric, from its name's suffix.
fn unit_of(name: &str) -> &'static str {
    match name {
        "qps" => "1/s",
        "setup_s" => "s",
        "peak_rss_mb" => "MB",
        "core.plan_cost" => "cost",
        "exec.lane_skew" => "ratio",
        n if n.ends_with("_ms") => "ms",
        n if n.ends_with("_us") => "us",
        n if n.ends_with("_pct") => "%",
        n if n.ends_with("_ratio") => "ratio",
        _ => "count",
    }
}

/// The `q`-quantile of sorted values, linearly interpolated.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Share of a run's windows, the slowest, that the end-to-end latency
/// and throughput are taken from.
const SLOW_SHARE: f64 = 0.2;

/// One window of a run: [`Plan::window`] consecutive requests of the
/// stream, a whole number of its rounds, so every window serves the same
/// mix of queries.
#[derive(Debug, Clone)]
struct Window {
    /// From the previous window's last return (or the run's start) to
    /// this window's last return, in nanoseconds.
    wall_ns: u64,
    /// Latencies of the window's requests, in nanoseconds.
    latencies_ns: Vec<u64>,
}

/// A run's full windows; when the run is shorter than one window, the
/// whole run is the one window.
fn windows(phase: &Phase, size: usize) -> Vec<Window> {
    let size = if phase.timeline.len() < size {
        phase.timeline.len().max(1)
    } else {
        size
    };
    let mut prev_end = 0;
    phase
        .timeline
        .chunks_exact(size)
        .map(|c| {
            let end = c[c.len() - 1].0;
            let w = Window {
                wall_ns: (end - prev_end).max(1),
                latencies_ns: c.iter().map(|&(_, lat)| lat).collect(),
            };
            prev_end = end;
            w
        })
        .collect()
}

/// The slowest [`SLOW_SHARE`] of the windows (at least one), by their
/// wall time.
///
/// The shared 2-core host the benchmark was sized on is contended most
/// of the time and runs up to 1.6x faster in blocks that last from
/// seconds to minutes. The share of a run spent in those blocks differs
/// from run to run, so a statistic of the whole run wanders with it (its
/// plain median by up to 1.6x between runs minutes apart). The slowest
/// fifth of a run's windows falls in contended time in nearly every run
/// and varies far less from run to run; a program change that slows
/// requests slows these windows with the rest.
fn slowest(mut windows: Vec<Window>) -> Vec<Window> {
    windows.sort_by_key(|w| std::cmp::Reverse(w.wall_ns));
    let k = ((windows.len() as f64 * SLOW_SHARE).ceil() as usize).max(1);
    windows.truncate(k);
    windows
}

fn sorted_ms(latencies_ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Run one invocation.
pub fn run(o: &Options) -> Result<Outcome, String> {
    let plan = o.workload.plan(o.seed, o.scale);
    // The oracle is computed from its own copy of the inputs, before any
    // timing, and is not part of the set-up time.
    let oracle = workload::oracle(&o.workload.inputs(o.seed, o.scale), &plan.queries)?;
    let mut out = if o.trace {
        traced_run(o, &plan, &oracle)?
    } else {
        timed_run(o, &plan, &oracle)?
    };
    let mut head = vec![
        format!(
            "workload {} seed {} trace {} seconds {}",
            o.workload.name(),
            o.seed,
            u8::from(o.trace),
            o.seconds
        ),
        format!("facts {}", facts::facts_json(o.seed)),
    ];
    head.append(&mut out.notes);
    for m in &out.metrics {
        head.push(format!("{} {} {}", m.name, m.value, m.unit));
    }
    head.push(format!(
        "error_rate {} ({} failed of {} attempted)",
        out.error_rate(),
        out.failed,
        out.attempted
    ));
    out.notes = head;
    Ok(out)
}

fn metric(name: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit_of(name),
        value,
    }
}

/// One set-up, timed: generate the inputs, build the server, open the
/// sessions and, on the warm workloads, warm their plan caches (answers
/// checked into `tally`). The server is dropped at the end.
fn set_up_once(
    o: &Options,
    plan: &Plan,
    oracle: &[Vec<Vec<oorq_storage::Value>>],
    tally: &mut Phase,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let server = timed::server(o.workload.inputs(o.seed, o.scale), plan);
    let mut sessions = timed::open_sessions(&server, plan)?;
    if plan.warm {
        let w = timed::warm_up(&mut sessions, plan, oracle);
        tally.attempted += w.attempted;
        tally.failed += w.failed;
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Set up again until `share` of the run's set-up quota (at least
/// [`MIN_SETUPS`] set-ups and [`SETUP_BUDGET_S`] of set-up time, at most
/// [`MAX_SETUPS`]) is met.
fn set_up_to(
    share: f64,
    o: &Options,
    plan: &Plan,
    oracle: &[Vec<Vec<oorq_storage::Value>>],
    setups: &mut Vec<f64>,
    tally: &mut Phase,
) -> Result<(), String> {
    let mut spent: f64 = setups.iter().sum();
    while setups.len() < MAX_SETUPS
        && (setups.len() < (MIN_SETUPS as f64 * share).ceil() as usize
            || spent < SETUP_BUDGET_S * share)
    {
        let s = set_up_once(o, plan, oracle, tally)?;
        setups.push(s);
        spent += s;
    }
    Ok(())
}

/// The end-to-end run: set up, then run the closed loop for the run's
/// seconds on that set-up. Further set-ups, timed for `setup_s` and then
/// dropped, are spread between the loop's windows (outside its clock),
/// so the set-up median samples the same stretch of machine time as the
/// windows rather than one block of it.
fn timed_run(
    o: &Options,
    plan: &Plan,
    oracle: &[Vec<Vec<oorq_storage::Value>>],
) -> Result<Outcome, String> {
    let mut setups: Vec<f64> = Vec::new();
    let mut warm = Phase::default();
    let t0 = Instant::now();
    let server = timed::server(o.workload.inputs(o.seed, o.scale), plan);
    let mut sessions = timed::open_sessions(&server, plan)?;
    if plan.warm {
        let w = timed::warm_up(&mut sessions, plan, oracle);
        warm.attempted += w.attempted;
        warm.failed += w.failed;
    }
    setups.push(t0.elapsed().as_secs_f64());
    let mut failure = None;
    let phase = timed::closed_loop(
        &mut sessions,
        plan,
        oracle,
        Duration::from_secs_f64(o.seconds),
        &mut |share| {
            if failure.is_none() {
                failure = set_up_to(share, o, plan, oracle, &mut setups, &mut warm).err();
            }
        },
    );
    if let Some(e) = failure {
        return Err(e);
    }
    set_up_to(1.0, o, plan, oracle, &mut setups, &mut warm)?;
    setups.sort_by(f64::total_cmp);
    let lat = sorted_ms(&phase.latencies_ns);
    let n = lat.len();
    let all = windows(&phase, plan.window);
    let n_windows = all.len();
    let window_line: Vec<String> = all
        .iter()
        .map(|w| {
            let s = sorted_ms(&w.latencies_ns);
            format!(
                "{:.1},{:.3},{:.3}",
                w.wall_ns as f64 / 1e6,
                quantile(&s, 0.5),
                quantile(&s, 0.9)
            )
        })
        .collect();
    let slow = slowest(all);
    let slow_lat: Vec<u64> = slow.iter().flat_map(|w| w.latencies_ns.clone()).collect();
    let slow_wall_s = slow.iter().map(|w| w.wall_ns).sum::<u64>() as f64 / 1e9;
    let slow_sorted = sorted_ms(&slow_lat);
    Ok(Outcome {
        attempted: phase.attempted + warm.attempted,
        failed: phase.failed + warm.failed,
        metrics: vec![
            metric("qps", slow_lat.len() as f64 / slow_wall_s),
            metric("latency_p50_ms", quantile(&slow_sorted, 0.5)),
            metric("latency_p90_ms", quantile(&slow_sorted, 0.9)),
            metric("setup_s", quantile(&setups, 0.5)),
            metric("peak_rss_mb", facts::peak_rss_mb()),
        ],
        notes: vec![
            format!(
                "samples: qps, latency_p50_ms and latency_p90_ms over the n={} requests of \
                 the slowest {} of {n_windows} windows of {} requests ({:.3} s); whole run: \
                 n={n} requests in {:.3} s, {:.3} 1/s, p50 {:.4} ms, p90 {:.4} ms; \
                 setup_s median of {} set-ups",
                slow_lat.len(),
                slow.len(),
                plan.window,
                slow_wall_s,
                phase.wall_s,
                n as f64 / phase.wall_s,
                quantile(&lat, 0.5),
                quantile(&lat, 0.9),
                setups.len()
            ),
            format!(
                "set-ups: n={}, min {:.6} s, quartiles {:.6} {:.6} {:.6} s, max {:.6} s",
                setups.len(),
                setups[0],
                quantile(&setups, 0.25),
                quantile(&setups, 0.5),
                quantile(&setups, 0.75),
                setups[setups.len() - 1]
            ),
            format!(
                "windows (wall ms, p50 ms, p90 ms): {}",
                window_line.join(" ")
            ),
            format!(
                "clients: {} closed-loop session(s), served serially; {} distinct queries",
                plan.sessions,
                plan.queries.len()
            ),
        ],
    })
}

/// The per-layer run: the request stream sent alternately through real
/// sessions (untraced) and through the traced replay, so both sides see
/// the same machine conditions; the difference of their median
/// latencies is the tracing overhead.
fn traced_run(
    o: &Options,
    plan: &Plan,
    oracle: &[Vec<Vec<oorq_storage::Value>>],
) -> Result<Outcome, String> {
    let server = timed::server(o.workload.inputs(o.seed, o.scale), plan);
    let mut sessions = timed::open_sessions(&server, plan)?;
    let mut untraced = if plan.warm {
        timed::warm_up(&mut sessions, plan, oracle)
    } else {
        Phase::default()
    };
    untraced.latencies_ns.clear();
    let mut replay = traced::Replay::new(o.workload.inputs(o.seed, o.scale), plan, oracle)?;
    let budget = Duration::from_secs_f64(o.seconds);
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < budget {
        let r = plan.stream[i % plan.stream.len()];
        i += 1;
        let t = Instant::now();
        let res = timed::send(&mut sessions[r.session], plan, r.query);
        let ns = t.elapsed().as_nanos() as u64;
        untraced.record(
            ns,
            res.is_ok_and(|a| timed::matches(&a.batch.rows, &oracle[r.query])),
        );
        replay.step(r);
    }
    let traced = replay.finish();
    let invalidations = server
        .metrics()
        .snapshot()
        .counters
        .get("serve.cache.invalidations")
        .copied()
        .unwrap_or(0);
    drop(sessions);

    let untraced_ms = quantile(&sorted_ms(&untraced.latencies_ns), 0.5);
    let traced_ms = quantile(&sorted_ms(&traced.phase.latencies_ns), 0.5);
    let mut metrics: Vec<Metric> = traced
        .metrics
        .iter()
        .map(|(name, v)| metric(name, *v))
        .collect();
    metrics.push(metric("serve.invalidations", invalidations as f64));
    metrics.push(metric(
        "perfbench.trace_overhead_ms",
        traced_ms - untraced_ms,
    ));

    let chrome = traced.trace.to_chrome();
    let summary =
        oorq_obs::check_chrome_trace(&chrome).map_err(|e| format!("chrome trace: {e}"))?;
    let mut notes = vec![
        format!(
            "tracing overhead: traced median {traced_ms:.4} ms (n={}) - untraced median \
             {untraced_ms:.4} ms (n={}) = {:.4} ms",
            traced.phase.latencies_ns.len(),
            untraced.latencies_ns.len(),
            traced_ms - untraced_ms
        ),
        format!(
            "trace: {} spans, {} events, chrome trace valid ({} events)",
            traced.trace.spans.len(),
            traced.trace.events.len(),
            summary.total_events
        ),
    ];
    if let Some(dir) = &o.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = dir.join(o.workload.name());
        let chrome_path = stem.with_extension("trace.json");
        let folded_path = stem.with_extension("folded");
        std::fs::write(&chrome_path, &chrome)
            .map_err(|e| format!("{}: {e}", chrome_path.display()))?;
        std::fs::write(&folded_path, traced.trace.to_folded())
            .map_err(|e| format!("{}: {e}", folded_path.display()))?;
        notes.push(format!(
            "wrote {} and {}",
            chrome_path.display(),
            folded_path.display()
        ));
    }
    Ok(Outcome {
        attempted: untraced.attempted + traced.phase.attempted,
        failed: untraced.failed + traced.phase.failed,
        metrics,
        notes,
    })
}

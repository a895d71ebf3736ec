//! The traced replay: the same request sequence a session serves, sent
//! through the same public functions `Session::run` calls, in the same
//! order, each call wrapped in a benchmark span.
//!
//! `Session::run` attaches neither a recorder nor a metrics registry to
//! its optimizer or executor, so a served request cannot be split into
//! layers from outside. The replay rebuilds the request path from the
//! public pieces instead: `PlanCache::get`/`insert`, `parse_query`,
//! `Optimizer::optimize` (with its recorder attached, so the §4 step
//! spans nest under the benchmark's `core` span), `oorq_pt::lower_with`,
//! `Executor::run` carrying the session's `ExecState`, and
//! `Database::io_stats` deltas. It adds no probe inside the program.
//! The drift check that follows a cache miss in `Session::run` is not
//! replayed; its time is missing from the replay's `serve` self time.

use std::collections::HashMap;
use std::sync::Arc;

use oorq_core::Optimizer;
use oorq_cost::CostModel;
use oorq_exec::{op_kind, ExecReport, ExecState, Executor, MethodRegistry};
use oorq_index::IndexSet;
use oorq_obs::{MetricsRegistry, Recorder, SpanId, Trace};
use oorq_pt::PtEnv;
use oorq_query::{parse_query, QueryGraph};
use oorq_serve::{canonical_text, query_key, CachedPlan, PlanCache};
use oorq_storage::{Database, DbStats, IoStats, Value};

use crate::timed::{matches, Phase};
use crate::workload::{Inputs, Mode, Plan, Request};

/// Operator kinds whose exclusive wall time is reported.
pub const OP_KINDS: [&str; 8] = ["scan", "Sel", "EJ", "IJ", "PIJ", "Proj", "Fix", "Exchange"];

/// The layers a request's time is split into (crate names).
pub const LAYERS: [&str; 5] = ["serve", "query", "core", "pt", "exec"];

/// §4 optimizer steps, by the span names the optimizer records.
pub const STEPS: [&str; 4] = ["rewrite", "translate", "generatePT", "transformPT"];

/// Counters of one executed request.
#[derive(Debug, Default, Clone)]
struct ExecTally {
    io: IoStats,
    evals: u64,
    rows_in: u64,
    fix_iterations: u64,
    /// Exclusive operator wall time per entry of [`OP_KINDS`].
    op_ns: [u64; OP_KINDS.len()],
    /// Exclusive wall time of every operator, of any kind.
    op_total_ns: u64,
    /// Lanes and max/mean lane wall of each `Exchange`/`Merge` fork.
    forks: Vec<(usize, f64)>,
}

/// One traced request.
struct RequestRec {
    span: Option<SpanId>,
    /// Part of the measured stream (not the warm-up).
    stream: bool,
    /// The answer matched the oracle.
    ok: bool,
    hit: bool,
    exec: ExecTally,
}

/// Spans of the per-call wrappers, by layer call.
#[derive(Default)]
struct Calls {
    parse: Vec<Option<SpanId>>,
    optimize: Vec<Option<SpanId>>,
    plan_cost: Vec<f64>,
    lower: Vec<Option<SpanId>>,
    snapshot: Vec<Option<SpanId>>,
}

/// A replayed session: a private snapshot, breaker temporaries and
/// prepared queries, as a `Session` holds them.
struct ReplaySession {
    db: Database,
    state: ExecState,
    /// Per query: graph, canonical text and cache key (prepared mode).
    prepared: Vec<(Arc<QueryGraph>, String, u64)>,
}

/// The traced replay: the shared state a `Server` holds, the replayed
/// sessions, and the recorder.
pub struct Replay<'p> {
    plan: &'p Plan,
    oracle: &'p [Vec<Vec<Value>>],
    sessions: Vec<Option<ReplaySession>>,
    db: Database,
    indexes: IndexSet,
    methods: MethodRegistry,
    stats: DbStats,
    cache: PlanCache,
    rec: Recorder,
    registry: MetricsRegistry,
    calls: Calls,
    requests: Vec<RequestRec>,
}

/// The replay's result: its per-layer figures, the trace, and the
/// answer tallies.
pub struct Traced {
    /// Per-layer metrics, by name.
    pub metrics: Vec<(String, f64)>,
    /// The spans, for export.
    pub trace: Trace,
    /// Tallies of the stream's requests (latency = request span
    /// duration); warm-up requests count as attempted too.
    pub phase: Phase,
}

fn span_ns(trace: &Trace, id: Option<SpanId>) -> u64 {
    id.and_then(|id| trace.span(id)).map_or(0, |s| s.dur_ns())
}

fn mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Wrap one call in a span of `cat` carrying the request id (`None`
/// outside a request).
fn wrap<T>(
    rec: &Recorder,
    cat: &str,
    name: &str,
    req: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, Option<SpanId>) {
    let id = rec.begin(cat, name);
    if let Some(req) = req {
        rec.span_fields(id, vec![("request".into(), req.into())]);
    }
    let out = f();
    rec.end(id);
    (out, id)
}

impl<'p> Replay<'p> {
    /// Stand the replay up over its own copy of the inputs: statistics,
    /// the plan cache, one snapshot per session with its queries
    /// prepared, and (warm workloads) every query run once per session.
    pub fn new(
        inputs: Inputs,
        plan: &'p Plan,
        oracle: &'p [Vec<Vec<Value>>],
    ) -> Result<Self, String> {
        let stats = DbStats::collect(&inputs.db);
        let mut r = Replay {
            plan,
            oracle,
            sessions: Vec::new(),
            db: inputs.db,
            indexes: inputs.indexes,
            methods: MethodRegistry::new(),
            stats,
            cache: PlanCache::new(plan.config.plan_cache_capacity),
            rec: Recorder::new(),
            registry: MetricsRegistry::new(),
            calls: Calls::default(),
            requests: Vec::new(),
        };
        for _ in 0..plan.sessions {
            let s = r.open_session()?;
            r.sessions.push(Some(s));
        }
        if plan.warm {
            for session in 0..plan.sessions {
                for query in 0..plan.queries.len() {
                    r.request(Request { query, session }, false);
                }
            }
        }
        Ok(r)
    }

    /// Replay one request of the measured stream.
    pub fn step(&mut self, r: Request) {
        self.request(r, true);
    }

    /// Close the trace and compute the per-layer metrics.
    pub fn finish(mut self) -> Traced {
        self.sessions.clear();
        summarize(self)
    }

    fn open_session(&mut self) -> Result<ReplaySession, String> {
        let (db, id) = wrap(&self.rec, "storage", "snapshot", None, || {
            self.db.snapshot()
        });
        self.calls.snapshot.push(id);
        let mut s = ReplaySession {
            db,
            state: ExecState::default(),
            prepared: Vec::new(),
        };
        if self.plan.mode == Mode::Prepared {
            for text in &self.plan.queries {
                let (graph, id) = wrap(&self.rec, "query", "parse", None, || {
                    parse_query(s.db.catalog(), text)
                });
                self.calls.parse.push(id);
                let graph = graph.map_err(|e| format!("prepare: {e}"))?;
                let canon = canonical_text(&graph);
                let key = query_key(&canon);
                s.prepared.push((Arc::new(graph), canon, key));
            }
        }
        Ok(s)
    }

    /// One request, mirroring `Session::run`.
    fn request(&mut self, r: Request, stream: bool) {
        let req = self.requests.len();
        let mut s = self.sessions[r.session]
            .take()
            .expect("session is not in use");
        let span = self.rec.begin("serve", "request");
        self.rec.span_fields(
            span,
            vec![
                ("request".into(), req.into()),
                ("session".into(), r.session.into()),
                ("query".into(), r.query.into()),
            ],
        );
        let result = self.serve(&mut s, r.query, req);
        self.rec.end(span);
        self.sessions[r.session] = Some(s);
        let (ok, hit, exec) = match result {
            Ok((rows, hit, exec)) => (matches(&rows, &self.oracle[r.query]), hit, exec),
            Err(_) => (false, false, ExecTally::default()),
        };
        self.requests.push(RequestRec {
            span,
            stream,
            ok,
            hit,
            exec,
        });
    }

    fn serve(
        &mut self,
        s: &mut ReplaySession,
        query: usize,
        req: usize,
    ) -> Result<(Vec<Vec<Value>>, bool, ExecTally), String> {
        let rec = self.rec.clone();
        let (graph, text, key) = match self.plan.mode {
            Mode::Prepared => {
                let (g, t, k) = &s.prepared[query];
                (Arc::clone(g), t.clone(), *k)
            }
            Mode::Text => {
                let src = &self.plan.queries[query];
                let (graph, id) = wrap(&rec, "query", "parse", Some(req), || {
                    parse_query(s.db.catalog(), src)
                });
                self.calls.parse.push(id);
                let graph = graph.map_err(|e| e.to_string())?;
                let canon = canonical_text(&graph);
                let key = query_key(&canon);
                (Arc::new(graph), canon, key)
            }
        };

        let (hit, _) = wrap(&rec, "serve", "cache.get", Some(req), || {
            self.cache.get(key, &text)
        });
        let (plan, was_hit) = match hit {
            Some(p) => (p, true),
            None => {
                let plan = self.optimize(&graph, req)?;
                wrap(&rec, "serve", "cache.insert", Some(req), || {
                    self.cache.insert(key, text, Arc::clone(&plan))
                });
                (plan, false)
            }
        };

        let env = PtEnv {
            catalog: s.db.catalog(),
            physical: s.db.physical(),
            temp_fields: s.state.temp_fields.clone(),
        };
        let (lowered, id) = wrap(&rec, "pt", "lower", Some(req), || {
            oorq_pt::lower_with(&env, &plan.pt, &plan.parallel)
        });
        self.calls.lower.push(id);
        lowered.map_err(|e| e.to_string())?;

        let io0 = s.db.io_stats();
        let state = std::mem::take(&mut s.state);
        let mut ex = Executor::new(&mut s.db, &self.indexes, &self.methods)
            .with_config(self.plan.config.exec.clone())
            .with_parallel(plan.parallel.clone())
            .with_state(state);
        let (res, _) = wrap(&rec, "exec", "run", Some(req), || ex.run(&plan.pt));
        let report = ex.report();
        s.state = ex.into_state();
        let batch = res.map_err(|e| e.to_string())?;
        let io1 = s.db.io_stats();
        Ok((batch.rows, was_hit, exec_tally(&report, io0, io1)))
    }

    /// `Server::optimize`, with the recorder and a registry attached.
    fn optimize(&mut self, graph: &QueryGraph, req: usize) -> Result<Arc<CachedPlan>, String> {
        let model = CostModel::new(
            self.db.catalog(),
            self.db.physical(),
            &self.stats,
            self.plan.config.cost_params.clone(),
        );
        let mut opt = Optimizer::new(model, self.plan.config.optimizer.clone())
            .with_recorder(self.rec.clone())
            .with_metrics(&self.registry);
        let (res, id) = wrap(&self.rec, "core", "optimize", Some(req), || {
            opt.optimize(graph)
        });
        self.calls.optimize.push(id);
        let o = res.map_err(|e| e.to_string())?;
        self.calls.plan_cost.push(o.cost.total(&opt.model.params));
        let plan_fingerprint = o.pt.fingerprint();
        Ok(Arc::new(CachedPlan {
            pt: o.pt,
            out_cols: o.out_cols,
            parallel: o.parallel,
            breakdown: o.trace.final_breakdown,
            plan_fingerprint,
        }))
    }
}

fn exec_tally(report: &ExecReport, io0: IoStats, io1: IoStats) -> ExecTally {
    let mut t = ExecTally {
        io: IoStats {
            page_reads: io1.page_reads - io0.page_reads,
            page_hits: io1.page_hits - io0.page_hits,
            page_writes: io1.page_writes - io0.page_writes,
            index_reads: io1.index_reads - io0.index_reads,
            spill_evictions: io1.spill_evictions - io0.spill_evictions,
            temp_reads: io1.temp_reads - io0.temp_reads,
        },
        evals: report.evals,
        ..ExecTally::default()
    };
    for op in &report.ops {
        t.rows_in += op.rows_in;
        t.op_total_ns += op.wall_ns;
        if let Some(k) = OP_KINDS.iter().position(|&k| k == op_kind(&op.label)) {
            t.op_ns[k] += op.wall_ns;
        }
    }
    t.fix_iterations = report
        .fix_deltas
        .iter()
        .map(|c| (c.deltas.len() as u64).saturating_sub(1))
        .sum();
    // Lanes appear in fork order; worker 0 opens each fork.
    let mut fork: Vec<u64> = Vec::new();
    let close = |fork: &mut Vec<u64>, forks: &mut Vec<(usize, f64)>| {
        if !fork.is_empty() {
            let max = *fork.iter().max().expect("non-empty") as f64;
            let mean = fork.iter().sum::<u64>() as f64 / fork.len() as f64;
            forks.push((fork.len(), if mean > 0.0 { max / mean } else { 1.0 }));
            fork.clear();
        }
    };
    for lane in &report.workers {
        if lane.worker == 0 {
            close(&mut fork, &mut t.forks);
        }
        fork.push(lane.wall_ns);
    }
    close(&mut fork, &mut t.forks);
    t
}

/// Turn the finished trace into per-layer metrics.
fn summarize(r: Replay<'_>) -> Traced {
    let trace = r.rec.finish();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in trace.spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p.0).or_default().push(i);
        }
    }
    let kids = |id: SpanId| children.get(&id.0).map(Vec::as_slice).unwrap_or(&[]);

    let mut phase = Phase::default();
    for q in &r.requests {
        if q.stream {
            phase.record(span_ns(&trace, q.span), q.ok);
        } else {
            phase.attempted += 1;
            phase.failed += u64::from(!q.ok);
        }
    }

    let stream: Vec<&RequestRec> = r.requests.iter().filter(|q| q.stream).collect();
    let n = stream.len();
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));

    // Layer self time over the stream: each wrapper span's subtree
    // belongs to its layer; `serve` keeps the rest of the request.
    let mut layer_ns = [0u64; LAYERS.len()];
    let mut request_ns = 0u64;
    for q in &stream {
        let Some(id) = q.span else { continue };
        let total = span_ns(&trace, Some(id));
        request_ns += total;
        let mut other = 0;
        for &c in kids(id) {
            let c = &trace.spans[c];
            match LAYERS.iter().position(|&l| l == c.cat) {
                Some(l) if l > 0 => {
                    layer_ns[l] += c.dur_ns();
                    other += c.dur_ns();
                }
                _ => {}
            }
        }
        layer_ns[0] += total.saturating_sub(other);
    }
    for (l, ns) in LAYERS.iter().zip(layer_ns) {
        put(
            &format!("{l}.self_pct"),
            100.0 * ns as f64 / request_ns.max(1) as f64,
        );
    }

    let call_mean = |ids: &[Option<SpanId>], unit: f64| {
        mean(
            ids.iter()
                .map(|&id| span_ns(&trace, id) as f64)
                .sum::<f64>()
                / unit,
            ids.len(),
        )
    };
    put("query.parse_us", call_mean(&r.calls.parse, 1e3));

    // Optimizer: per optimize call, the §4 steps' exclusive span time.
    let opt_n = r.calls.optimize.len();
    put("core.optimize_ms", call_mean(&r.calls.optimize, 1e6));
    let mut step_ns = [0u64; STEPS.len()];
    let mut stack: Vec<usize> = Vec::new();
    for id in r.calls.optimize.iter().flatten() {
        stack.extend(kids(*id));
        while let Some(i) = stack.pop() {
            let s = &trace.spans[i];
            let sub = kids(s.id);
            if let Some(k) = STEPS.iter().position(|&k| k == s.name) {
                let inner: u64 = sub.iter().map(|&c| trace.spans[c].dur_ns()).sum();
                step_ns[k] += s.dur_ns().saturating_sub(inner);
            }
            stack.extend(sub);
        }
    }
    for (step, ns) in STEPS.iter().zip(step_ns) {
        put(&format!("core.{step}_ms"), mean(ns as f64 / 1e6, opt_n));
    }
    let snap = r.registry.snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as f64;
    let enumerated = counter("optimizer.candidates.enumerated");
    put("core.candidates_enumerated", mean(enumerated, opt_n));
    put(
        "core.accept_ratio",
        counter("optimizer.candidates.accepted") / enumerated.max(1.0),
    );
    put(
        "core.prune_ratio",
        (counter("optimizer.candidates.pruned") + counter("optimizer.candidates.pruned_proven"))
            / enumerated.max(1.0),
    );
    put(
        "core.plan_cost",
        mean(r.calls.plan_cost.iter().sum(), opt_n),
    );

    put("pt.lower_us", call_mean(&r.calls.lower, 1e3));

    // Executor and storage, per stream request.
    let exec_spans: Vec<u64> = stream
        .iter()
        .filter_map(|q| q.span)
        .flat_map(|id| kids(id).iter().copied())
        .filter(|&c| trace.spans[c].cat == "exec")
        .map(|c| trace.spans[c].dur_ns())
        .collect();
    let exec_ns: u64 = exec_spans.iter().sum();
    put("exec.run_ms", mean(exec_ns as f64 / 1e6, exec_spans.len()));
    // Operator kinds as shares of all operators' exclusive time (lanes
    // of a parallel fork add up, so the base is operator time, not
    // wall time).
    let op_total: u64 = stream.iter().map(|q| q.exec.op_total_ns).sum();
    for (k, kind) in OP_KINDS.iter().enumerate() {
        let ns: u64 = stream.iter().map(|q| q.exec.op_ns[k]).sum();
        put(
            &format!("exec.op.{kind}.self_pct"),
            100.0 * ns as f64 / op_total.max(1) as f64,
        );
    }
    let per =
        |f: &dyn Fn(&ExecTally) -> u64| mean(stream.iter().map(|q| f(&q.exec) as f64).sum(), n);
    put("exec.evals_per_query", per(&|t| t.evals));
    put("exec.rows_in_per_query", per(&|t| t.rows_in));
    put("exec.fix_iterations", per(&|t| t.fix_iterations));
    let forks: Vec<(usize, f64)> = stream.iter().flat_map(|q| q.exec.forks.clone()).collect();
    let (lanes, skew) = if forks.is_empty() {
        // Serial execution: one lane, trivially balanced.
        (1.0, 1.0)
    } else {
        (
            mean(forks.iter().map(|f| f.0 as f64).sum(), forks.len()),
            mean(forks.iter().map(|f| f.1).sum(), forks.len()),
        )
    };
    put("exec.worker_lanes", lanes);
    put("exec.lane_skew", skew);

    let hits = per(&|t| t.io.page_hits);
    let reads = per(&|t| t.io.page_reads);
    put("storage.page_hits", hits);
    put("storage.page_reads", reads);
    put(
        "storage.hit_ratio",
        hits / (hits + reads).max(f64::MIN_POSITIVE),
    );
    put("storage.page_writes", per(&|t| t.io.page_writes));
    put("storage.spill_evictions", per(&|t| t.io.spill_evictions));
    put("storage.temp_reads", per(&|t| t.io.temp_reads));
    put("storage.snapshot_us", call_mean(&r.calls.snapshot, 1e3));
    put("index.reads_per_query", per(&|t| t.io.index_reads));

    put("serve.self_ms", mean(layer_ns[0] as f64 / 1e6, n));
    put(
        "serve.cache_hit_ratio",
        mean(stream.iter().filter(|q| q.hit).count() as f64, n),
    );

    Traced {
        metrics: m,
        trace,
        phase,
    }
}

//! The untraced closed loop: set up a server, open its sessions, and
//! send the request stream through `Session::execute_*` for a fixed
//! time, checking every answer against the oracle.

use std::time::{Duration, Instant};

use oorq_exec::MethodRegistry;
use oorq_serve::{ServeError, Server, Session};
use oorq_storage::Value;

use crate::workload::{Inputs, Mode, Plan};

/// Tallies of one closed-loop phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every successful request, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Closed loop only: for every request sent, in stream order, when
    /// it returned (nanoseconds from the start of the phase) and its
    /// latency.
    pub timeline: Vec<(u64, u64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or returned a wrong answer.
    pub failed: u64,
    /// Wall time of the phase, in seconds.
    pub wall_s: f64,
}

impl Phase {
    /// Fold a checked request into the tallies.
    pub fn record(&mut self, latency_ns: u64, ok: bool) {
        self.attempted += 1;
        if ok {
            self.latencies_ns.push(latency_ns);
        } else {
            self.failed += 1;
        }
    }
}

/// Whether an answer matches the oracle's sorted rows.
pub fn matches(rows: &[Vec<Value>], want: &[Vec<Value>]) -> bool {
    if rows.len() != want.len() {
        return false;
    }
    let mut got = rows.to_vec();
    got.sort();
    got == want
}

/// Build the server from generated inputs.
pub fn server(inputs: Inputs, plan: &Plan) -> Server {
    Server::new(
        inputs.db,
        inputs.indexes,
        MethodRegistry::new(),
        plan.config.clone(),
    )
}

/// Open the plan's sessions and prepare its queries in each.
pub fn open_sessions<'s>(server: &'s Server, plan: &Plan) -> Result<Vec<Session<'s>>, String> {
    let mut sessions = Vec::with_capacity(plan.sessions);
    for _ in 0..plan.sessions {
        let mut s = server.session();
        if plan.mode == Mode::Prepared {
            for (i, text) in plan.queries.iter().enumerate() {
                s.prepare(&query_name(i), text)
                    .map_err(|e| format!("prepare q{i}: {e}"))?;
            }
        }
        sessions.push(s);
    }
    Ok(sessions)
}

/// The name a prepared query is registered under.
pub fn query_name(i: usize) -> String {
    format!("q{i}")
}

/// Send one request through the session's public API.
pub fn send(
    session: &mut Session<'_>,
    plan: &Plan,
    query: usize,
) -> Result<oorq_serve::Answer, ServeError> {
    match plan.mode {
        Mode::Prepared => session.execute_prepared(&query_name(query)),
        Mode::Text => session.execute_text(&plan.queries[query]),
    }
}

/// Warm the plan cache: every session runs every query once.
pub fn warm_up(sessions: &mut [Session<'_>], plan: &Plan, oracle: &[Vec<Vec<Value>>]) -> Phase {
    let mut phase = Phase::default();
    for s in sessions.iter_mut() {
        for (q, want) in oracle.iter().enumerate() {
            let t = Instant::now();
            let res = send(s, plan, q);
            let ns = t.elapsed().as_nanos() as u64;
            phase.record(ns, res.is_ok_and(|a| matches(&a.batch.rows, want)));
        }
    }
    phase
}

/// Replay the request stream, in order and cyclically, until `budget`
/// of serving has elapsed. Each session is a closed-loop client served
/// serially: the next request is sent only after the previous reply.
/// After every full window of the stream, `between` is called with the
/// share of the budget served so far; the time it takes is left out of
/// the phase's clock.
pub fn closed_loop(
    sessions: &mut [Session<'_>],
    plan: &Plan,
    oracle: &[Vec<Vec<Value>>],
    budget: Duration,
    between: &mut dyn FnMut(f64),
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let served = |paused: Duration| start.elapsed().saturating_sub(paused);
    let mut i = 0usize;
    while served(paused) < budget {
        let r = plan.stream[i % plan.stream.len()];
        i += 1;
        let t = Instant::now();
        let res = send(&mut sessions[r.session], plan, r.query);
        let ns = t.elapsed().as_nanos() as u64;
        let ok = res.is_ok_and(|a| matches(&a.batch.rows, &oracle[r.query]));
        phase.timeline.push((served(paused).as_nanos() as u64, ns));
        phase.record(ns, ok);
        if i.is_multiple_of(plan.window) {
            let t = Instant::now();
            between(served(paused).as_secs_f64() / budget.as_secs_f64());
            paused += t.elapsed();
        }
    }
    phase.wall_s = served(paused).as_secs_f64();
    phase
}
